package chaos

// At-rest corruption and Byzantine-response injection for the audit
// soaks. The faults here are surgical on purpose: each one flips a
// single ASCII digit (XOR 0x01, so a digit stays a digit) inside a
// result payload, which keeps every file and response syntactically
// valid JSON — the only thing that can catch the damage is content
// verification, which is exactly what the scrubber and the client
// quorum are on trial for.

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"strings"

	"repro/internal/rng"
)

// resultMarker locates result payloads inside snapshot records and job
// responses; the first digit after it sits inside the recorded result
// bytes, so flipping it breaks the entry's content digest and nothing
// else.
var resultMarker = []byte(`"result":`)

// flipTargets returns the offset of the first ASCII digit after each
// result marker in data. The result value is a nested JSON object (the
// stats record), so the scan is depth-aware: it walks into the value
// until it meets a digit, and gives up only when the whole value closes
// without one — a bare comma just separates the record's fields.
func flipTargets(data []byte) []int {
	var offs []int
	for i := 0; ; {
		j := bytes.Index(data[i:], resultMarker)
		if j < 0 {
			return offs
		}
		i += j + len(resultMarker)
		depth := 0
	scan:
		for k := i; k < len(data); k++ {
			switch c := data[k]; {
			case c >= '0' && c <= '9':
				offs = append(offs, k)
				break scan
			case c == '{' || c == '[':
				depth++
			case c == '}' || c == ']':
				depth--
				if depth <= 0 {
					break scan // value closed without a digit
				}
			case c == ',' && depth == 0:
				break scan // scalar value, no digit to flip
			}
		}
	}
}

// FlipSnapshotResults corrupts up to n distinct cache entries in the
// segment at path (a cache snapshot, or a journal's checkpoint): for each selected done record, one digit
// inside its stored result bytes is XOR'd with 1 and the line's frame
// CRC is re-sealed over the damaged payload. That models corruption
// that happened before the record was framed (bad memory on the writing
// host): the frame still verifies, and only the entry's content digest
// can tell — which is what the scrubber and the serve-path guard are on
// trial for. Selection is seeded and deterministic. Returns how many
// entries were actually flipped.
func FlipSnapshotResults(path string, seed uint64, n int) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	var cand []int
	for i, line := range lines {
		if len(line) > 9 && len(flipTargets(line[9:])) > 0 {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return 0, fmt.Errorf("chaos: no result payloads found in %s", path)
	}
	flipped := 0
	for _, pi := range rng.New(seed).Perm(len(cand)) {
		if flipped == n {
			break
		}
		payload := bytes.TrimSuffix(lines[cand[pi]][9:], []byte("\n"))
		payload[flipTargets(payload)[0]] ^= 0x01
		lines[cand[pi]] = fmt.Appendf(nil, "%08x %s\n", crc32.ChecksumIEEE(payload), payload)
		flipped++
	}
	return flipped, os.WriteFile(path, bytes.Join(lines, nil), 0o644)
}

// FlipJournalLines corrupts up to n non-final lines of the framed
// journal at path by flipping one byte inside each selected line's JSON
// payload, so the line's CRC frame no longer verifies. The final line
// is never touched: replay already tolerates a bad tail as a torn
// write, and the scrubber deliberately does the same — these flips must
// read as at-rest corruption, not a crash artifact. Returns how many
// lines were flipped.
func FlipJournalLines(path string, seed uint64, n int) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	lines := bytes.Split(data, []byte("\n"))
	// Candidates: non-empty lines that are not the last record.
	last := len(lines) - 1
	for last >= 0 && len(lines[last]) == 0 {
		last--
	}
	var cand []int
	for i := 0; i < last; i++ {
		// The frame is "%08x " + JSON; flip a byte safely inside the JSON
		// (the record's schema field digit region) rather than the CRC
		// text, so the line still splits and parses as a frame shape.
		if len(lines[i]) > 12 {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return 0, fmt.Errorf("chaos: no flippable journal lines in %s", path)
	}
	flipped := 0
	for _, pi := range rng.New(seed).Perm(len(cand)) {
		if flipped == n {
			break
		}
		line := lines[cand[pi]]
		line[len(line)-2] ^= 0x01 // inside the JSON tail; CRC no longer matches
		flipped++
	}
	return flipped, os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644)
}

// LyingDaemon wraps an asfd handler as a Byzantine fleet member: every
// 2xx job response passes through with one digit of each result payload
// flipped. The lie is deterministic (same request, same wrong bytes),
// length-preserving, and syntactically invisible — a client that does
// not verify content cannot tell it happened.
func LyingDaemon(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/jobs") {
			h.ServeHTTP(w, r)
			return
		}
		rec := &lieRecorder{header: make(http.Header)}
		h.ServeHTTP(rec, r)
		body := rec.body.Bytes()
		if rec.status >= 200 && rec.status < 300 {
			for _, off := range flipTargets(body) {
				body[off] ^= 0x01
			}
		}
		dst := w.Header()
		for k, vs := range rec.header {
			dst[k] = vs
		}
		w.WriteHeader(rec.status)
		w.Write(body)
	})
}

// lieRecorder buffers a response so LyingDaemon can rewrite the body
// before it leaves the building.
type lieRecorder struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (r *lieRecorder) Header() http.Header { return r.header }

func (r *lieRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

func (r *lieRecorder) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
}
