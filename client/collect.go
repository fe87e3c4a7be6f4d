package client

import (
	"context"
	"fmt"

	asfsim "repro"
	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/stats"
)

// CollectMatrix is harness.Collect evaluated against a daemon instead
// of in-process: it is the same collector (harness.CollectWith), with
// each cell run by RunCell, so paperfigs renders identical figures
// whether the cells ran locally or were served (possibly from cache) by
// asfd. opts.Parallelism bounds the cells in flight on the client side,
// 4 when it is 0; the daemon applies its own worker pool and
// backpressure on top. Failed cells are retried and resubmitted by
// RunCell's resilience loop; the first error in matrix order wins and
// names its cell.
func (c *Client) CollectMatrix(ctx context.Context, opts harness.Options, detections []asfsim.Detection) (*harness.Matrix, error) {
	if opts.Parallelism <= 0 {
		opts.Parallelism = 4
	}
	return harness.CollectWith(opts, detections, func(s harness.CellSpec) (*stats.Run, error) {
		rec, err := c.RunCell(ctx, service.JobRequest{
			Workload:  s.Workload,
			Detection: s.Detection.String(),
			Scale:     s.Scale.String(),
			Seed:      s.Seed,
			Cores:     s.Cores,
		})
		if err != nil {
			return nil, fmt.Errorf("client: %s/%v/seed %d: %w", s.Workload, s.Detection, s.Seed, err)
		}
		return rec.Run(), nil
	})
}
