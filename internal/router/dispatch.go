package router

import (
	"context"
	"errors"

	"repro/internal/server/wire"
)

// The router's submit fan-out is many small groups: a pipelined client
// sending batch=1 makes every query its own shard group, and paying one
// backend round trip per group would roughly double the per-query
// protocol cost. The coalescing dispatcher collapses that: groups bound
// for the same backend that arrive while a frame is being assembled
// travel together in one wire frame (the backend fans a mixed-shard
// batch out to its own shard loops anyway), and the replies are split
// back by position. Per-group ordering is preserved — a group's items
// stay contiguous and in order inside the merged frame.

const (
	// dispatchQueue buffers groups waiting to be merged; enqueue blocks
	// (backpressure) when the backend cannot drain.
	dispatchQueue = 1024
	// maxCoalesce bounds queries per merged backend frame.
	maxCoalesce = 256
	// maxFlights bounds merged frames in flight per backend, so one
	// slow backend queues work instead of spawning unbounded senders.
	maxFlights = 8
)

// pendingGroup is one shard group waiting in a backend's coalescing
// queue. res is buffered (capacity 1) so the flight goroutine never
// blocks on a caller that gave up and left.
type pendingGroup struct {
	qs  []wire.Query
	res chan groupResult
}

type groupResult struct {
	rs  []wire.Reply
	err error
}

// submitVia hands one shard group to a backend's dispatcher and waits
// for its slice of the merged reply.
func (r *Router) submitVia(ctx context.Context, b *backend, qs []wire.Query) ([]wire.Reply, error) {
	g := pendingGroup{qs: qs, res: make(chan groupResult, 1)}
	select {
	case b.dispatch <- g:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-r.stop:
		return nil, ErrClosed
	}
	select {
	case res := <-g.res:
		return res.rs, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-r.stop:
		return nil, ErrClosed
	}
}

// dispatchLoop merges queued groups into backend frames. One loop per
// backend; frames for one backend are assembled serially but up to
// maxFlights may be awaiting replies at once (the mux completes them
// out of order).
func (r *Router) dispatchLoop(b *backend) {
	defer r.wg.Done()
	sem := make(chan struct{}, maxFlights)
	// carry holds a group already taken off the queue that the MaxBatch
	// guard deferred to the next frame.
	var carry *pendingGroup
	for {
		var g pendingGroup
		if carry != nil {
			g, carry = *carry, nil
		} else {
			select {
			case g = <-b.dispatch:
			case <-r.stop:
				return
			}
		}
		groups := []pendingGroup{g}
		n := len(g.qs)
	merge:
		for n < maxCoalesce {
			select {
			case g2 := <-b.dispatch:
				// A merged frame must stay a legal wire batch: a group
				// that would push it past MaxBatch starts the next frame
				// instead of failing every group in this one.
				if n+len(g2.qs) > wire.MaxBatch {
					carry = &g2
					break merge
				}
				groups = append(groups, g2)
				n += len(g2.qs)
			default:
				break merge
			}
		}
		select {
		case sem <- struct{}{}:
		case <-r.stop:
			failGroups(groups, ErrClosed)
			return
		}
		cl, err := b.pool.Get()
		if err != nil {
			<-sem
			failGroups(groups, err)
			continue
		}
		merged := groups[0].qs
		if len(groups) > 1 {
			merged = make([]wire.Query, 0, n)
			for _, g := range groups {
				merged = append(merged, g.qs...)
			}
		}
		// The flight is deliberately NOT in r.wg: on Close the pools
		// close after the loops stop, which errors any in-flight Submit
		// and lets the flight drain into its buffered result channels.
		go func(cl *wire.MuxClient, groups []pendingGroup, merged []wire.Query) {
			defer func() { <-sem }()
			rs, err := cl.Submit(context.Background(), merged)
			if err == nil && len(rs) != len(merged) {
				err = errors.New("router: backend reply count mismatch")
			}
			if err != nil {
				markDeadIfClosed(b, cl, err)
				failGroups(groups, err)
				return
			}
			off := 0
			for _, g := range groups {
				g.res <- groupResult{rs: rs[off : off+len(g.qs)]}
				off += len(g.qs)
			}
		}(cl, groups, merged)
	}
}

func failGroups(groups []pendingGroup, err error) {
	for _, g := range groups {
		g.res <- groupResult{err: err}
	}
}
