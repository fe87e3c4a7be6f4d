package client

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/service"
)

// BenchmarkServeCacheHit measures one served cell on the hit path:
// RunCell against an in-process daemon that already holds the cell, so
// each iteration is a submit answered from the cache, its HTTP round
// trip and the client's decode of the record.
func BenchmarkServeCacheHit(b *testing.B) {
	s, err := service.New(service.Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Kill()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := New(ts.URL, fastOpts())
	ctx := context.Background()
	req := service.JobRequest{Workload: "kmeans", Detection: "subblock-4", Scale: "tiny"}
	if _, err := c.RunCell(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunCell(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}
