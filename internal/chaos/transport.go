package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/internal/rng"
)

// CorruptingTransport is the wire-level lying channel: a seeded
// http.RoundTripper that, with probability Rate, flips one byte in the
// body of a replication response on its way to the follower. The
// status stays 200, the JSON stays parseable, the connection closes
// cleanly — nothing at the transport layer reports a problem, so the
// follower's frame CRCs and content digests are the only line of
// defense. The flip targets a decimal digit near the middle of the
// body (digits flip to digits under the low bit), which keeps the
// document syntactically valid and lands inside the frame payloads
// rather than the envelope.
type CorruptingTransport struct {
	// Inner performs the real request (http.DefaultTransport when nil).
	Inner http.RoundTripper

	// Rate is the per-response corruption probability for matching
	// requests.
	Rate float64

	mu      sync.Mutex
	r       *rng.Rand
	flips   uint64
	starts  uint64
	severed bool
	logw    io.Writer
}

// errSevered is every round trip's result once the link is cut.
var errSevered = errors.New("chaos: replication link severed")

// NewCorruptingTransport builds a seeded corrupting transport that
// perturbs responses to /v1/replication/ paths. Events are logged one
// per line to logw (nil discards them).
func NewCorruptingTransport(seed uint64, rate float64, logw io.Writer) *CorruptingTransport {
	if logw == nil {
		logw = io.Discard
	}
	return &CorruptingTransport{Rate: rate, r: rng.New(seed), logw: logw}
}

// Flips returns the number of responses actually corrupted.
func (t *CorruptingTransport) Flips() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flips
}

// Sever cuts the link: every round trip begun from now on fails. One
// already in flight still completes.
func (t *CorruptingTransport) Sever() {
	t.mu.Lock()
	t.severed = true
	t.mu.Unlock()
}

// Starts returns the number of round trips begun, severed or not.
func (t *CorruptingTransport) Starts() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.starts
}

func (t *CorruptingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	t.starts++
	severed := t.severed
	t.mu.Unlock()
	if severed {
		return nil, errSevered
	}
	inner := t.Inner
	if inner == nil {
		inner = http.DefaultTransport
	}
	resp, err := inner.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	if !strings.Contains(req.URL.Path, "/v1/replication/") {
		return resp, err
	}

	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}

	// Only payload-bearing responses are worth corrupting: an empty
	// long-poll batch is a ~60-byte envelope with nothing CRC-covered in
	// it, so a flip there proves nothing about the integrity machinery.
	// A real frame (record + entry + checksum) or snapshot dwarfs the
	// threshold, and its middle byte is always inside checksummed
	// content.
	t.mu.Lock()
	fire := len(body) >= 512 && t.r.Bool(t.Rate)
	t.mu.Unlock()
	if fire {
		if i := flippableDigit(body); i >= 0 {
			body[i] ^= 0x01
			t.mu.Lock()
			t.flips++
			n := t.flips
			t.mu.Unlock()
			fmt.Fprintf(t.logw, "transport: flip #%d %s (offset %d)\n", n, req.URL.Path, i)
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	return resp, nil
}

// flippableDigit finds a decimal digit at or after the middle of the
// body (wrapping to the front), or -1 if the body has none. Digits map
// to digits under a low-bit flip (0↔1, 2↔3, …, 8↔9), so the corrupted
// document still parses as JSON and the damage is caught by checksum,
// not by the decoder.
func flippableDigit(b []byte) int {
	if len(b) == 0 {
		return -1
	}
	start := len(b) / 2
	for off := 0; off < len(b); off++ {
		i := (start + off) % len(b)
		if b[i] >= '0' && b[i] <= '9' {
			return i
		}
	}
	return -1
}
