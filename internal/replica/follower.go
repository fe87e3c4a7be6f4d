// Package replica runs the follower half of asfd's warm-standby
// replication: a sync loop that bootstraps from the primary's compacted
// segment, then long-polls its record log and hands each response body
// to the local server.
//
// The loop owns no correctness: every integrity check (frame CRC,
// entry content digest, segment trailer, sequence continuity) lives in
// the service layer's ApplyReplicatedBatch / ApplyReplicatedSnapshot,
// so a corrupt or torn stream is refused there no matter who drives the
// sync. The loop's job is steering — when to snapshot, when to retry,
// when to stop (the server was promoted out from under it, or Stop was
// called).
package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// Config configures a follower sync loop.
type Config struct {
	// PrimaryURL is the primary's base URL, e.g. "http://10.0.0.1:8080".
	PrimaryURL string

	// Server is the local warm standby (booted with
	// service.Config.Following) that replicated state is applied into.
	Server *service.Server

	// Client is the HTTP client for stream/snapshot requests. Its
	// Timeout must exceed Wait or every long poll dies early; leave it
	// zero and the follower manages per-request timeouts itself.
	Client *http.Client

	// Wait is the long-poll window per stream request (default 5s).
	Wait time.Duration

	// MaxFrames bounds one stream batch (default 512).
	MaxFrames int

	// Backoff is the pause after a transport error or a refused batch
	// before re-requesting (default 500ms). Corruption refusals re-fetch
	// the same sequence — the primary's log still has the good bytes.
	Backoff time.Duration

	// Logger receives sync-loop events (nil = discard).
	Logger *obs.Logger
}

// Follower is a running sync loop. Stop it before promoting the local
// server, or let promotion stop it: the loop exits on its own when the
// server reports ErrNotFollowing.
type Follower struct {
	cfg    Config
	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex
	lastErr error
}

// Start begins syncing from the primary and returns immediately. The
// first snapshot bootstrap happens inside the loop, so a follower can
// start before its primary is reachable and converge when it appears.
func Start(cfg Config) (*Follower, error) {
	if cfg.PrimaryURL == "" {
		return nil, errors.New("replica: PrimaryURL required")
	}
	if cfg.Server == nil {
		return nil, errors.New("replica: Server required")
	}
	if cfg.Wait <= 0 {
		cfg.Wait = 5 * time.Second
	}
	if cfg.MaxFrames <= 0 {
		cfg.MaxFrames = 512
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 500 * time.Millisecond
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NewLogger(io.Discard, obs.LevelError, false, nil)
	}

	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{cfg: cfg, cancel: cancel, done: make(chan struct{})}
	go f.run(ctx)
	return f, nil
}

// Stop halts the sync loop and waits for it to exit. Safe to call more
// than once, and after the loop already stopped itself.
func (f *Follower) Stop() {
	f.cancel()
	<-f.done
}

// Done is closed when the sync loop has exited (Stop called, or the
// local server was promoted).
func (f *Follower) Done() <-chan struct{} { return f.done }

// Err returns the most recent sync error, nil after a healthy batch.
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastErr
}

func (f *Follower) note(err error) {
	f.mu.Lock()
	f.lastErr = err
	f.mu.Unlock()
}

// run is the sync loop: stream from the local apply cursor, fall back
// to a snapshot on a gap, back off on errors, exit on promotion.
func (f *Follower) run(ctx context.Context) {
	defer close(f.done)
	srv, log := f.cfg.Server, f.cfg.Logger
	for ctx.Err() == nil {
		if !srv.Following() {
			log.Info("replica sync loop exiting: server promoted")
			return
		}
		// Self-healing: a follower cannot re-execute a cell, so when the
		// local scrubber has quarantined entries the repair path is a
		// fresh digest-verified snapshot from the primary.
		resync := srv.AuditRepairPending() > 0
		var err error
		if !resync {
			path := fmt.Sprintf("/v1/replication/stream?from=%d&wait=%d&max=%d",
				srv.ReplNextApply(), f.cfg.Wait.Milliseconds(), f.cfg.MaxFrames)
			// The request outlives the long-poll window by a margin, never
			// hangs forever on a wedged primary.
			_, err = f.fetch(ctx, path, f.cfg.Wait+10*time.Second, srv.ApplyReplicatedBatch)
			resync = errors.Is(err, service.ErrReplGap)
		}
		if resync {
			log.Info("re-syncing from snapshot",
				"have", srv.ReplNextApply(), "repairPending", srv.AuditRepairPending())
			err = f.syncSnapshot(ctx)
		}
		switch {
		case err == nil:
			f.note(nil)
		case errors.Is(err, service.ErrNotFollowing):
			log.Info("replica sync loop exiting: server promoted")
			return
		case ctx.Err() != nil:
			return
		default:
			// A transport failure or a refusal (corruption): nothing was
			// applied, the cursor did not move — back off and re-fetch.
			f.note(err)
			log.Warn("replication sync failed", "err", err)
			if !f.sleep(ctx) {
				return
			}
		}
	}
}

// fetch GETs path from the primary and passes the response body to
// apply.
func (f *Follower) fetch(ctx context.Context, path string, timeout time.Duration, apply func(io.Reader) (int, error)) (int, error) {
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, f.cfg.PrimaryURL+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("replica: %s from %s%s", resp.Status, f.cfg.PrimaryURL, path)
	}
	return apply(resp.Body)
}

func (f *Follower) syncSnapshot(ctx context.Context) error {
	applied, err := f.fetch(ctx, "/v1/replication/snapshot", 60*time.Second, f.cfg.Server.ApplyReplicatedSnapshot)
	if err != nil {
		return err
	}
	f.cfg.Logger.Info("snapshot re-sync applied",
		"entries", strconv.Itoa(applied), "resumeSeq", strconv.FormatUint(f.cfg.Server.ReplNextApply(), 10))
	return nil
}

// sleep pauses for the configured backoff; false means the loop was
// stopped while sleeping.
func (f *Follower) sleep(ctx context.Context) bool {
	t := time.NewTimer(f.cfg.Backoff)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
