package client

// Quorum verification: run the same cell on several distinct daemons
// and require their result bytes to agree before trusting any of them.
//
// The simulator's determinism contract makes this strict and cheap: an
// honest fleet returns byte-identical results for a cell no matter
// which daemon computes it, so votes are compared by content digest —
// no field-level reconciliation, no tolerance windows. One lying or
// corrupted daemon is therefore outvoted exactly: its digest is the
// minority, its endpoint accumulates a failure strike (three strikes
// ejects it, like any other misbehaving endpoint), and the majority
// bytes are returned to the caller. A two-way split with no majority
// pulls a tie-breaking vote from a fresh endpoint that has not voted
// yet. Quorum is opt-in (Options.Quorum >= 2) and orthogonal to the
// single-endpoint path: with it off, nothing here runs.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/jsondec"
	"repro/internal/service"
	"repro/internal/stats"
)

// quorumVote is one endpoint's answer for a cell: the raw result bytes
// exactly as served, and their content digest (computed locally — the
// server's own digest claim is exactly what a liar would forge).
type quorumVote struct {
	ep     *endpoint
	result json.RawMessage
	digest string
}

// quorumArmed reports whether this cell should run under quorum
// verification: opted in, and enough endpoints to compare anything.
func (c *Client) quorumArmed() bool {
	return c.opts.Quorum >= 2 && len(c.endpoints) >= 2
}

// runCellQuorum is runCell under quorum verification: the cell is
// submitted to Quorum distinct endpoints (rendezvous order, so the
// cache-affine endpoint is always among the voters), the result bytes
// are compared by digest, and only a digest shared by a strict
// majority of obtained votes is decoded and returned. Endpoints that
// voted with the minority are flagged like failing endpoints.
func (c *Client) runCellQuorum(ctx context.Context, req service.JobRequest, trace string) (*stats.Record, error) {
	ranked := rank(c.endpoints, affinity(req))
	now := c.opts.now()
	// Prefer endpoints that are routable and not warm standbys, but fall
	// back to the full ranking rather than refusing to vote at all.
	pool := make([]*endpoint, 0, len(ranked))
	for _, ep := range ranked {
		if ep.available(now) && !ep.isFollower() {
			pool = append(pool, ep)
		}
	}
	if len(pool) == 0 {
		pool = ranked
	}
	want := c.opts.Quorum
	if want > len(pool) {
		want = len(pool)
	}

	votes := make([]quorumVote, 0, want)
	next := 0
	gather := func(n int) {
		for ; next < len(pool) && len(votes) < n; next++ {
			v, err := c.voteOn(ctx, pool[next], req, trace)
			if err != nil {
				if ctx.Err() != nil {
					return
				}
				// A vote that cannot be obtained (endpoint down, job lost)
				// just shrinks the electorate; integrity needs agreement
				// among the answers we have, not perfect attendance.
				c.cevent(trace, "quorum.novote", "endpoint", pool[next].base, "err", err.Error())
				continue
			}
			votes = append(votes, v)
		}
	}
	gather(want)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if len(votes) == 0 {
		return nil, fmt.Errorf("client: quorum: no endpoint answered for cell %s", affinity(req))
	}

	majority := quorumMajority(votes)
	if majority == "" || quorumCount(votes, majority) < len(votes) {
		// At least one vote disagrees with the rest.
		c.stats.add(func(s *Stats) { s.QuorumDivergences++ })
		c.cevent(trace, "quorum.diverge",
			"cell", affinity(req), "votes", strconv.Itoa(len(votes)))
	}
	for majority == "" && next < len(pool) {
		// No strict majority (e.g. a 1-1 split): pull tie-breaking votes
		// from endpoints that have not voted yet.
		gather(len(votes) + 1)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		majority = quorumMajority(votes)
	}
	if majority == "" {
		if len(votes) == 1 {
			majority = votes[0].digest // a single obtained vote stands unopposed
		} else {
			return nil, fmt.Errorf("client: quorum unresolved for cell %s: %d votes, no majority digest",
				affinity(req), len(votes))
		}
	}

	var winner *quorumVote
	for i := range votes {
		v := &votes[i]
		if v.digest == majority {
			if winner == nil {
				winner = v
			}
			v.ep.noteQuorumMajority()
			continue
		}
		// Minority voter: its bytes differ from what the rest of the
		// fleet deterministically agrees on — a lying proxy, corrupted
		// cache, or broken daemon. Integrity strikes accumulate in their
		// own ledger (HTTP-level successes do not clear them) and eject
		// repeat offenders until a probe re-admits them.
		if v.ep.noteQuorumMinority(c.opts.now(), c.opts.EjectAfter, c.opts.ProbeAfter) {
			c.stats.add(func(s *Stats) {
				s.QuorumEjections++
				s.EndpointEjections++
			})
		}
		c.cevent(trace, "quorum.flag",
			"endpoint", v.ep.base, "digest", v.digest, "want", majority)
	}

	var rec stats.Record
	if err := jsondec.Unmarshal(winner.result, &rec); err != nil {
		return nil, fmt.Errorf("client: decoding quorum result: %w", err)
	}
	return &rec, nil
}

// quorumMajority returns the digest held by a strict majority of votes,
// or "" when none is.
func quorumMajority(votes []quorumVote) string {
	for _, v := range votes {
		if quorumCount(votes, v.digest)*2 > len(votes) {
			return v.digest
		}
	}
	return ""
}

func quorumCount(votes []quorumVote, digest string) int {
	n := 0
	for _, v := range votes {
		if v.digest == digest {
			n++
		}
	}
	return n
}

// voteOn obtains one endpoint's vote: submit pinned to that endpoint
// (no failover — a vote from somewhere else would defeat the point),
// wait for the terminal state on the same endpoint, digest the bytes.
func (c *Client) voteOn(ctx context.Context, ep *endpoint, req service.JobRequest, trace string) (quorumVote, error) {
	body, err := json.Marshal(service.SubmitRequest{JobRequest: req})
	if err != nil {
		return quorumVote{}, err
	}
	var resp service.SubmitResponse
	if _, err := c.request(ctx, http.MethodPost, "/v1/jobs", body, &resp, target{ep: ep, trace: trace}); err != nil {
		return quorumVote{}, err
	}
	if len(resp.Jobs) != 1 {
		return quorumVote{}, fmt.Errorf("client: daemon accepted %d jobs for one cell", len(resp.Jobs))
	}
	view, err := c.waitOn(ctx, ep, resp.Jobs[0], trace)
	if err != nil {
		return quorumVote{}, err
	}
	switch view.State {
	case service.JobDone:
		// The daemon sends its stored result bytes unchanged in every
		// response shape, so the received bytes are the ones to vote on.
		return quorumVote{ep: ep, result: view.Result, digest: service.ResultDigest(view.Result)}, nil
	case service.JobCanceled:
		return quorumVote{}, fmt.Errorf("client: job %s canceled: %s", view.ID, view.Error)
	default:
		return quorumVote{}, fmt.Errorf("client: job %s failed (%s): %s", view.ID, view.ErrorKind, view.Error)
	}
}
