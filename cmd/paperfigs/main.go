// Command paperfigs regenerates the paper's evaluation tables and figures
// (Figs 1, 2, 8, 9, 10; Tables II and III; the §IV-E overhead accounting;
// and the abstract's headline averages). Figures 3, 4 and 5 are trace
// figures; see cmd/asftrace.
//
// Usage:
//
//	paperfigs                 # everything
//	paperfigs -fig 8          # one figure
//	paperfigs -table 3        # one table
//	paperfigs -overhead       # §IV-E accounting only
//	paperfigs -summary        # headline averages only
//	paperfigs -scale medium -seeds 5 -cores 8 -workloads kmeans,vacation
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	asfsim "repro"
	"repro/client"
	"repro/internal/harness"
	"repro/internal/workloads"
)

func main() {
	var (
		fig      = flag.Int("fig", 0, "regenerate one figure (1, 2, 8, 9, 10); 0 = all")
		table    = flag.Int("table", 0, "print one table (2 or 3) and exit")
		overhead = flag.Bool("overhead", false, "print the §IV-E overhead accounting and exit")
		prior    = flag.Bool("priorwork", false, "run the §II comparator table (WAR-only, signatures) instead of the figures")
		times    = flag.Bool("times", false, "print the per-benchmark time breakdown (tx / backoff / non-tx) instead of the figures")
		asJSON   = flag.Bool("json", false, "emit the figure data as JSON instead of tables")
		summary  = flag.Bool("summary", false, "print only the headline averages")
		scale    = flag.String("scale", "small", "workload scale: tiny, small, medium")
		seeds    = flag.Int("seeds", 3, "seeds per configuration (results averaged)")
		cores    = flag.Int("cores", 8, "simulated cores")
		wls      = flag.String("workloads", "", "comma-separated workload subset (default: all)")
		parallel = flag.Int("parallel", 0, "matrix cells run concurrently (0 = GOMAXPROCS, or 4 cells in flight with -server; 1 = serial); output is identical either way")
		server   = flag.String("server", "", "collect the matrix from an asfd daemon (one base URL) or fleet (comma-separated URLs; cells are routed by content so repeat runs hit the same cache) instead of simulating in-process")
	)
	flag.Parse()

	// Static outputs (no simulation needed).
	if *table == 2 {
		fmt.Println(harness.Table2())
		return
	}
	if *table == 3 {
		fmt.Println(harness.Table3())
		return
	}
	if *table != 0 {
		fmt.Fprintf(os.Stderr, "paperfigs: no table %d (only 2 and 3)\n", *table)
		os.Exit(2)
	}
	if *overhead {
		fmt.Println(harness.OverheadTable())
		return
	}

	opts := harness.DefaultOptions()
	opts.Cores = *cores
	opts.Parallelism = *parallel
	opts.Seeds = nil
	for i := 0; i < *seeds; i++ {
		opts.Seeds = append(opts.Seeds, uint64(i+1))
	}
	switch *scale {
	case "tiny":
		opts.Scale = workloads.ScaleTiny
	case "small":
		opts.Scale = workloads.ScaleSmall
	case "medium":
		opts.Scale = workloads.ScaleMedium
	default:
		fmt.Fprintf(os.Stderr, "paperfigs: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	opts.Workloads = workloads.Names()
	if *wls != "" {
		opts.Workloads = strings.Split(*wls, ",")
	}

	wantFig := func(n int) bool { return *fig == 0 || *fig == n }

	// Figures 1, 2 and 8 need only baseline runs; 9, 10 and the summary
	// also need SubBlock(4) and Perfect; the prior-work table adds the
	// §II comparators.
	dets := []asfsim.Detection{asfsim.DetectBaseline}
	if wantFig(9) || wantFig(10) || *summary || *asJSON {
		dets = append(dets, asfsim.DetectSubBlock4, asfsim.DetectPerfect)
	}
	if *prior {
		dets = []asfsim.Detection{
			asfsim.DetectBaseline, asfsim.DetectWAROnly, asfsim.DetectSignature,
			asfsim.DetectSubBlock4, asfsim.DetectPerfect,
		}
	}

	fmt.Fprintf(os.Stderr, "paperfigs: running %d workloads × %d systems × %d seeds at scale %v...\n",
		len(opts.Workloads), len(dets), len(opts.Seeds), opts.Scale)
	var m *harness.Matrix
	var err error
	if *server != "" {
		// Served matrices are bit-identical to local ones: the daemon
		// runs the same deterministic cells and caches them by content
		// address, so a repeat collection costs no simulation at all.
		m, err = client.New(*server, client.Options{}).CollectMatrix(context.Background(), opts, dets)
	} else {
		m, err = harness.Collect(opts, dets)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
		os.Exit(1)
	}

	if *prior {
		fmt.Println(m.PriorWork())
		return
	}
	if *times {
		fmt.Println(m.TimeBreakdown())
		return
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(m.JSON()); err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *summary {
		fmt.Print(m.Summary())
		return
	}
	if *fig == 0 {
		fmt.Println(harness.Table2())
		fmt.Println()
		fmt.Println(harness.Table3())
		fmt.Println()
		fmt.Println(harness.OverheadTable())
		fmt.Println()
	}
	if wantFig(1) {
		fmt.Println(m.Fig1())
		fmt.Println()
	}
	if wantFig(2) {
		fmt.Println(m.Fig2())
		fmt.Println()
	}
	if wantFig(8) {
		fmt.Println(m.Fig8())
		fmt.Println()
	}
	if wantFig(9) {
		fmt.Println(m.Fig9())
		fmt.Println()
	}
	if wantFig(10) {
		fmt.Println(m.Fig10())
		fmt.Println()
	}
	if *fig == 0 {
		fmt.Print(m.Summary())
	}
}
