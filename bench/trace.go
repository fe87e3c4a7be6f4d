package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into the system: a local
// cell or its run phases, a RunCell call or one of its HTTP round trips.
// Spans of one cell share Trace, the cell's request index.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the window began
	End    int64  `json:"endNs"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// *spanLog is the untraced run: every method is a no-op.
type spanLog struct {
	base  time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newSpanLog(base time.Time) *spanLog { return &spanLog{base: base} }

// newID reserves a span ID, so a parent can hand its ID to children
// before it ends.
func (l *spanLog) newID() int64 {
	if l == nil {
		return 0
	}
	return l.ids.Add(1)
}

func (l *spanLog) add(trace, id, parent int64, name string, start, end time.Time) {
	if l == nil {
		return
	}
	s := span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(l.base)), End: int64(end.Sub(l.base))}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// writeJSONL writes every span, one JSON object per line, in start order.
func (l *spanLog) writeJSONL(path string) error {
	l.mu.Lock()
	spans := append([]span(nil), l.spans...)
	l.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSummary is the per-name digest of a span log: how many spans, and
// their mean total and self time. Self time is a span's duration minus
// the part of it its children cover.
type spanSummary struct {
	Count  int     `json:"count"`
	MeanMs float64 `json:"meanMs"`
	SelfMs float64 `json:"selfMs"`
}

func (l *spanLog) summary() map[string]spanSummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type acc struct {
		n           int
		total, self int64
	}
	accs := make(map[string]*acc)
	for _, s := range l.spans {
		a := accs[s.Name]
		if a == nil {
			a = &acc{}
			accs[s.Name] = a
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.End - s.Start - covered(s, children[s.ID])
	}
	out := make(map[string]spanSummary, len(accs))
	for name, a := range accs {
		out[name] = spanSummary{Count: a.n,
			MeanMs: float64(a.total) / float64(a.n) / 1e6,
			SelfMs: float64(a.self) / float64(a.n) / 1e6}
	}
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := parent.Start
	for _, k := range kids {
		start, end := max(k.Start, cur), min(k.End, parent.End)
		if end > start {
			total += end - start
			cur = end
		}
	}
	return total
}

// cellTrace rides a RunCell call's context down to the HTTP transport,
// so each round trip becomes a child span of its cell and adds to the
// cell's round-trip time.
type cellTrace struct {
	trace, span int64
	rtt         atomic.Int64 // summed round-trip nanoseconds
}

type cellTraceKey struct{}

// countingTransport is the traced run's http.RoundTripper for the client:
// it counts and times submissions (POST /v1/jobs) and polls (GET
// /v1/jobs/{id}). A round trip ends when the client closes the response
// body, after reading all of it.
type countingTransport struct {
	base  http.RoundTripper
	spans *spanLog

	submits, polls   atomic.Int64
	submitNs, pollNs atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.done(req, start)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { t.done(req, start) }}
	return resp, nil
}

// done accounts one finished round trip. Only window requests carry a
// cellTrace; set-up traffic passes through uncounted.
func (t *countingTransport) done(req *http.Request, start time.Time) {
	ct, ok := req.Context().Value(cellTraceKey{}).(*cellTrace)
	if !ok {
		return
	}
	end := time.Now()
	d := int64(end.Sub(start))
	name := "http.other"
	switch {
	case req.Method == http.MethodPost && req.URL.Path == "/v1/jobs":
		name = "http.submit"
		t.submits.Add(1)
		t.submitNs.Add(d)
	case req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/v1/jobs/"):
		name = "http.poll"
		t.polls.Add(1)
		t.pollNs.Add(d)
	}
	ct.rtt.Add(d)
	t.spans.add(ct.trace, t.spans.newID(), ct.span, name, start, end)
}

// timedBody reports the end of a round trip on the first Close.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}
