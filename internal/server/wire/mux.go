package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/server"
)

// ErrClientClosed is returned by MuxClient calls after Close, or after
// the connection died underneath the client.
var ErrClientClosed = errors.New("wire: client closed")

// TaggedError is a tag-scoped server failure: the batch or subscription
// it names failed, the connection did not. Submit returns it unwrapped
// in error form; it exists as a type so callers can distinguish "my
// batch was refused" (retryable elsewhere) from a dead connection.
type TaggedError struct {
	Tag uint64
	Msg string
}

func (e *TaggedError) Error() string {
	return fmt.Sprintf("wire: server error (tag %d): %s", e.Tag, e.Msg)
}

// muxCall is one in-flight tagged batch on the client side.
type muxCall struct {
	n  int // queries sent, for the reply-count sanity check
	ch chan muxResult
}

type muxResult struct {
	replies []Reply
	err     error
}

// traceResult is one trace request's outcome on the client side.
type traceResult struct {
	view server.TraceView
	err  error
}

// adminResult is one shard-admin request's outcome on the client side:
// an ack (freeze, install), a state packet (extract), or an ownership
// map (owners), depending on which frame the tag was opened for.
type adminResult struct {
	shard  int
	packet []byte
	owned  []bool
	err    error
}

// Sub is one client-side subscription to server-pushed values of type
// T. Values arrive on C as the server pushes them; the channel is closed
// when the subscription ends (Close, a tag-scoped server error, or
// connection teardown). A slow consumer drops pushes rather than
// stalling the connection's reader.
type Sub[T any] struct {
	C   <-chan T
	c   chan T
	tag uint64
	// unsubscribe tells the server the tag is done.
	unsubscribe func(tag uint64) error

	mu     sync.Mutex
	closed bool
	err    error
}

// StatsSub is one client-side stats subscription: each push is a full
// engine snapshot.
type StatsSub = Sub[server.Stats]

// EventsSub is one client-side economy-events subscription. Each
// cursored installment carries only events the subscription has not yet
// seen, plus the journal's running totals, so the totals in the next
// installment still reconcile after a dropped one (they are running
// sums, not deltas).
type EventsSub = Sub[server.EventsView]

// newSub builds a subscription whose channel buffers size pushes.
func newSub[T any](size int, unsubscribe func(tag uint64) error) *Sub[T] {
	ch := make(chan T, size)
	return &Sub[T]{C: ch, c: ch, unsubscribe: unsubscribe}
}

// Err reports why the subscription ended, once C is closed; nil means a
// clean Close.
func (s *Sub[T]) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close unsubscribes: the server stops pushing and C is closed. Safe to
// call more than once.
func (s *Sub[T]) Close() error {
	if !s.finish(nil) {
		return nil
	}
	return s.unsubscribe(s.tag)
}

// finish closes C exactly once, recording the cause; reports whether
// this call was the one that closed it.
func (s *Sub[T]) finish(cause error) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.closed = true
	s.err = cause
	close(s.c)
	return true
}

// deliver hands the reader a push without racing finish: the mutex
// serializes the send against the close, and a slow consumer drops the
// push rather than stalling the connection's reader.
func (s *Sub[T]) deliver(v T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	select {
	case s.c <- v:
	default:
	}
}

// MuxClient is the multiplexed (protocol v2) client: one connection,
// any number of goroutines, any number of outstanding batches. Each
// Submit rides a tagged frame; a reader goroutine demultiplexes replies
// back to their callers as the server completes them — out of order
// when the server's shard groups finish out of order — and a writer
// goroutine coalesces concurrent submitters' frames into shared
// flushes. The zero value is not usable; DialMux or NewMuxClient.
type MuxClient struct {
	conn net.Conn
	w    *frameWriter // counts Submit calls awaiting a reply as outstanding

	mu      sync.Mutex
	calls   map[uint64]*muxCall
	subs    map[uint64]*StatsSub
	tcalls  map[uint64]chan traceResult
	esubs   map[uint64]*EventsSub
	acalls  map[uint64]chan adminResult
	nextTag uint64
	err     error // sticky: why the connection died
	done    chan struct{}
}

// DialMux connects to a binary-protocol listener and negotiates
// protocol v2.
func DialMux(addr string) (*MuxClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cl, err := NewMuxClient(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return cl, nil
}

// NewMuxClient performs the hello exchange on an established connection
// and starts the reader and writer goroutines. On error the connection
// is left to the caller to close.
func NewMuxClient(conn net.Conn) (*MuxClient, error) {
	c := &MuxClient{
		conn:   conn,
		w:      newFrameWriter(conn, 1),
		calls:  make(map[uint64]*muxCall),
		subs:   make(map[uint64]*StatsSub),
		tcalls: make(map[uint64]chan traceResult),
		esubs:  make(map[uint64]*EventsSub),
		acalls: make(map[uint64]chan adminResult),
		done:   make(chan struct{}),
	}

	// The hello exchange is the one lockstep moment: write ours, read
	// theirs, before any concurrency exists.
	if err := WriteFrame(c.w.bw, AppendHello(nil, ProtocolV2)); err != nil {
		return nil, err
	}
	if err := c.w.bw.Flush(); err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	payload, err := ReadFrame(br, nil)
	if err != nil {
		return nil, fmt.Errorf("wire: reading hello reply: %w", err)
	}
	if len(payload) > 0 && payload[0] == msgError {
		msg, _, err := consumeString(payload[1:])
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("wire: server rejected hello: %s", msg)
	}
	version, err := DecodeHello(payload)
	if err != nil {
		return nil, err
	}
	if version < ProtocolV2 {
		return nil, fmt.Errorf("wire: server protocol version %d < %d", version, ProtocolV2)
	}

	go c.w.loop()
	go c.readLoop(br)
	return c, nil
}

// Close tears the connection down; in-flight Submits return
// ErrClientClosed and subscription channels close.
func (c *MuxClient) Close() error {
	err := c.conn.Close()
	<-c.done // reader observed the close and failed everything in flight
	return err
}

// readLoop demultiplexes inbound frames to their tags until the
// connection dies, then fails every outstanding call and subscription.
func (c *MuxClient) readLoop(br *bufio.Reader) {
	var rbuf []byte
	var fatal error
	for {
		payload, err := ReadFrame(br, rbuf)
		if err != nil {
			fatal = err
			break
		}
		rbuf = payload[:0]

		switch {
		case len(payload) > 0 && payload[0] == msgTaggedReplyBatch:
			// Decoded into a fresh slice: the caller owns it outright, and
			// concurrent callers must not share scratch space.
			tag, replies, err := DecodeTaggedReplyBatch(payload, nil)
			if err != nil {
				fatal = err
				break
			}
			c.mu.Lock()
			call := c.calls[tag]
			delete(c.calls, tag)
			c.mu.Unlock()
			if call == nil {
				continue // abandoned (ctx cancellation); drop it
			}
			if len(replies) != call.n {
				call.ch <- muxResult{err: fmt.Errorf("wire: %d replies for %d queries (tag %d)", len(replies), call.n, tag)}
				continue
			}
			call.ch <- muxResult{replies: replies}

		case len(payload) > 0 && payload[0] == msgTaggedError:
			tag, msg, err := DecodeTaggedError(payload)
			if err != nil {
				fatal = err
				break
			}
			terr := &TaggedError{Tag: tag, Msg: msg}
			c.mu.Lock()
			call := c.calls[tag]
			delete(c.calls, tag)
			sub := c.subs[tag]
			delete(c.subs, tag)
			tcall := c.tcalls[tag]
			delete(c.tcalls, tag)
			esub := c.esubs[tag]
			delete(c.esubs, tag)
			acall := c.acalls[tag]
			delete(c.acalls, tag)
			c.mu.Unlock()
			if call != nil {
				call.ch <- muxResult{err: terr}
			}
			if sub != nil {
				sub.finish(terr)
			}
			if tcall != nil {
				tcall <- traceResult{err: terr}
			}
			if esub != nil {
				esub.finish(terr)
			}
			if acall != nil {
				acall <- adminResult{err: terr}
			}

		case len(payload) > 0 && payload[0] == msgStatsPush:
			tag, st, err := DecodeStatsPush(payload)
			if err != nil {
				fatal = err
				break
			}
			c.mu.Lock()
			sub := c.subs[tag]
			c.mu.Unlock()
			if sub != nil {
				sub.deliver(st)
			}

		case len(payload) > 0 && payload[0] == msgTracePush:
			tag, view, err := DecodeTracePush(payload)
			if err != nil {
				fatal = err
				break
			}
			c.mu.Lock()
			tcall := c.tcalls[tag]
			delete(c.tcalls, tag)
			c.mu.Unlock()
			if tcall != nil {
				tcall <- traceResult{view: view}
			}

		case len(payload) > 0 && payload[0] == msgEventsPush:
			tag, view, err := DecodeEventsPush(payload)
			if err != nil {
				fatal = err
				break
			}
			c.mu.Lock()
			esub := c.esubs[tag]
			c.mu.Unlock()
			if esub != nil {
				esub.deliver(view)
			}

		case len(payload) > 0 && payload[0] == msgShardAck:
			tag, shard, err := DecodeShardAck(payload)
			if err != nil {
				fatal = err
				break
			}
			c.mu.Lock()
			acall := c.acalls[tag]
			delete(c.acalls, tag)
			c.mu.Unlock()
			if acall != nil {
				acall <- adminResult{shard: shard}
			}

		case len(payload) > 0 && payload[0] == msgShardState:
			// DecodeShardState copies the packet out of the read buffer, so
			// the caller owns it outright.
			tag, shard, packet, err := DecodeShardState(payload)
			if err != nil {
				fatal = err
				break
			}
			c.mu.Lock()
			acall := c.acalls[tag]
			delete(c.acalls, tag)
			c.mu.Unlock()
			if acall != nil {
				acall <- adminResult{shard: shard, packet: packet}
			}

		case len(payload) > 0 && payload[0] == msgOwnersReply:
			tag, owned, err := DecodeOwnersReply(payload)
			if err != nil {
				fatal = err
				break
			}
			c.mu.Lock()
			acall := c.acalls[tag]
			delete(c.acalls, tag)
			c.mu.Unlock()
			if acall != nil {
				acall <- adminResult{owned: owned}
			}

		case len(payload) > 0 && payload[0] == msgError:
			msg, _, err := consumeString(payload[1:])
			if err == nil {
				err = fmt.Errorf("wire: server error: %s", msg)
			}
			fatal = err

		default:
			fatal = fmt.Errorf("wire: unexpected message type %d", firstByte(payload))
		}
		if fatal != nil {
			break
		}
	}

	// Fail everything in flight, exactly once, then stop the writer.
	c.mu.Lock()
	if c.err == nil {
		c.err = fatal
	}
	calls := c.calls
	subs := c.subs
	tcalls := c.tcalls
	esubs := c.esubs
	acalls := c.acalls
	c.calls = make(map[uint64]*muxCall)
	c.subs = make(map[uint64]*StatsSub)
	c.tcalls = make(map[uint64]chan traceResult)
	c.esubs = make(map[uint64]*EventsSub)
	c.acalls = make(map[uint64]chan adminResult)
	c.mu.Unlock()
	for _, call := range calls {
		call.ch <- muxResult{err: fmt.Errorf("%w: %v", ErrClientClosed, fatal)}
	}
	for _, sub := range subs {
		sub.finish(fmt.Errorf("%w: %v", ErrClientClosed, fatal))
	}
	for _, tcall := range tcalls {
		tcall <- traceResult{err: fmt.Errorf("%w: %v", ErrClientClosed, fatal)}
	}
	for _, esub := range esubs {
		esub.finish(fmt.Errorf("%w: %v", ErrClientClosed, fatal))
	}
	for _, acall := range acalls {
		acall <- adminResult{err: fmt.Errorf("%w: %v", ErrClientClosed, fatal)}
	}
	c.w.stop()
	close(c.done)
}

// register allocates a fresh tag under mu, failing fast on a dead
// connection; attach files the caller's bookkeeping under the new tag
// while the lock is still held.
func (c *MuxClient) register(attach func(tag uint64)) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, fmt.Errorf("%w: %v", ErrClientClosed, c.err)
	}
	c.nextTag++
	tag := c.nextTag
	attach(tag)
	return tag, nil
}

// Submit sends one tagged query batch and waits for its replies. Safe
// for concurrent use: any number of goroutines may have batches in
// flight on the one connection, and each gets its own freshly allocated
// reply slice. Per-item failures ride Reply.Err exactly as in the
// lockstep client; a batch-scoped failure (a draining server, a decode
// error) returns a *TaggedError with the connection still healthy.
func (c *MuxClient) Submit(ctx context.Context, qs []Query) ([]Reply, error) {
	call := &muxCall{n: len(qs), ch: make(chan muxResult, 1)}
	tag, err := c.register(func(tag uint64) { c.calls[tag] = call })
	if err != nil {
		return nil, err
	}
	payload, err := AppendTaggedQueryBatch(c.w.getBuf(), tag, qs)
	if err != nil {
		c.mu.Lock()
		delete(c.calls, tag)
		c.mu.Unlock()
		return nil, err
	}
	c.w.outstanding.Add(1)
	defer c.w.outstanding.Add(-1)
	c.w.send(payload)
	select {
	case res := <-call.ch:
		return res.replies, res.err
	case <-ctx.Done():
		// Abandon the tag; the reader drops the late reply on the floor.
		c.mu.Lock()
		delete(c.calls, tag)
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// SubscribeStats opens a server-pushed stats stream: one snapshot
// immediately, then one every interval (floored by the server at its
// minimum cadence). The pushes arrive on the returned sub's C. Close
// the sub to stop the stream.
func (c *MuxClient) SubscribeStats(interval float64) (*StatsSub, error) {
	sub := newSub[server.Stats](4, c.sendUnsubscribe)
	tag, err := c.register(func(tag uint64) { sub.tag = tag; c.subs[tag] = sub })
	if err != nil {
		return nil, err
	}
	c.w.send(AppendStatsSubscribe(c.w.getBuf(), tag, interval))
	return sub, nil
}

// Stats fetches one live engine snapshot via a one-shot subscription —
// the v2 answer to the lockstep client's Stats round trip, served by a
// server push instead of a poll.
func (c *MuxClient) Stats(ctx context.Context) (server.Stats, error) {
	sub := newSub[server.Stats](1, c.sendUnsubscribe)
	tag, err := c.register(func(tag uint64) { sub.tag = tag; c.subs[tag] = sub })
	if err != nil {
		return server.Stats{}, err
	}
	// Interval 0: the server pushes exactly once and keeps no ticker.
	c.w.send(AppendStatsSubscribe(c.w.getBuf(), tag, 0))
	defer func() {
		c.mu.Lock()
		delete(c.subs, tag)
		c.mu.Unlock()
	}()
	select {
	case st, ok := <-sub.C:
		if !ok {
			return server.Stats{}, sub.Err()
		}
		return st, nil
	case <-c.done:
		return server.Stats{}, ErrClientClosed
	case <-ctx.Done():
		return server.Stats{}, ctx.Err()
	}
}

// sendUnsubscribe tells the server a subscription tag is done; the
// client-side bookkeeping is already cleared.
func (c *MuxClient) sendUnsubscribe(tag uint64) error {
	c.mu.Lock()
	delete(c.subs, tag)
	err := c.err
	c.mu.Unlock()
	if err != nil {
		return nil // connection already dead; nothing to tell
	}
	c.w.send(AppendStatsUnsubscribe(c.w.getBuf(), tag))
	return nil
}

// Trace fetches the server's sampled decision traces over the query
// connection — the binary twin of GET /v1/trace. tenant and template
// filter ("" matches everything); n <= 0 applies the server's default
// bound.
func (c *MuxClient) Trace(ctx context.Context, tenant, template string, n int) (server.TraceView, error) {
	ch := make(chan traceResult, 1)
	tag, err := c.register(func(tag uint64) { c.tcalls[tag] = ch })
	if err != nil {
		return server.TraceView{}, err
	}
	if n < 0 {
		n = 0
	}
	c.w.send(AppendTraceRequest(c.w.getBuf(), tag, tenant, template, uint64(n)))
	select {
	case res := <-ch:
		return res.view, res.err
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.tcalls, tag)
		c.mu.Unlock()
		return server.TraceView{}, ctx.Err()
	}
}

// Events fetches one economy-events snapshot — the binary twin of GET
// /v1/events. typ and tenant filter ("" matches everything); n <= 0
// applies the server's default bound.
func (c *MuxClient) Events(ctx context.Context, typ, tenant string, n int) (server.EventsView, error) {
	sub := newSub[server.EventsView](1, c.sendEventsUnsubscribe)
	tag, err := c.register(func(tag uint64) { sub.tag = tag; c.esubs[tag] = sub })
	if err != nil {
		return server.EventsView{}, err
	}
	if n < 0 {
		n = 0
	}
	c.w.send(AppendEventsRequest(c.w.getBuf(), tag, typ, tenant, uint64(n)))
	defer func() {
		c.mu.Lock()
		delete(c.esubs, tag)
		c.mu.Unlock()
	}()
	select {
	case view, ok := <-sub.C:
		if !ok {
			return server.EventsView{}, sub.Err()
		}
		return view, nil
	case <-c.done:
		return server.EventsView{}, ErrClientClosed
	case <-ctx.Done():
		return server.EventsView{}, ctx.Err()
	}
}

// SubscribeEvents opens a server-pushed economy-events stream: one
// installment of everything the journals buffer immediately, then every
// interval only the events the stream has not yet seen. The cursor
// lives server-side, so installments never repeat an event. Close the
// sub to stop the stream.
func (c *MuxClient) SubscribeEvents(interval float64) (*EventsSub, error) {
	sub := newSub[server.EventsView](4, c.sendEventsUnsubscribe)
	tag, err := c.register(func(tag uint64) { sub.tag = tag; c.esubs[tag] = sub })
	if err != nil {
		return nil, err
	}
	c.w.send(AppendEventsSubscribe(c.w.getBuf(), tag, interval))
	return sub, nil
}

// sendEventsUnsubscribe mirrors sendUnsubscribe for events streams.
func (c *MuxClient) sendEventsUnsubscribe(tag uint64) error {
	c.mu.Lock()
	delete(c.esubs, tag)
	err := c.err
	c.mu.Unlock()
	if err != nil {
		return nil // connection already dead; nothing to tell
	}
	c.w.send(AppendEventsUnsubscribe(c.w.getBuf(), tag))
	return nil
}

// Done is closed when the connection has died and every in-flight call
// has been failed; pools poll it to decide whether a cached client is
// still usable.
func (c *MuxClient) Done() <-chan struct{} { return c.done }

// adminCall opens a tag, sends the frame built by build, and waits for
// the admin reply. A tag-scoped refusal comes back as *TaggedError; a
// dead connection as ErrClientClosed.
func (c *MuxClient) adminCall(ctx context.Context, build func(tag uint64) []byte) (adminResult, error) {
	ch := make(chan adminResult, 1)
	tag, err := c.register(func(tag uint64) { c.acalls[tag] = ch })
	if err != nil {
		return adminResult{}, err
	}
	c.w.send(build(tag))
	select {
	case res := <-ch:
		return res, res.err
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.acalls, tag)
		c.mu.Unlock()
		return adminResult{}, ctx.Err()
	}
}

// FreezeShard tells the engine to stop deciding a shard's traffic: it
// answers "shard not owned here" from then on. Idempotent; the router's
// bootstrap move for slots another backend owns.
func (c *MuxClient) FreezeShard(ctx context.Context, shard int) error {
	_, err := c.adminCall(ctx, func(tag uint64) []byte {
		return AppendShardFreeze(c.w.getBuf(), tag, shard)
	})
	return err
}

// ExtractShard freezes a shard and moves its state out as an opaque
// persist-encoded packet — step one of a live migration. The source
// keeps an empty, disowned slot.
func (c *MuxClient) ExtractShard(ctx context.Context, shard int) ([]byte, error) {
	res, err := c.adminCall(ctx, func(tag uint64) []byte {
		return AppendShardExtract(c.w.getBuf(), tag, shard)
	})
	if err != nil {
		return nil, err
	}
	if res.shard != shard || len(res.packet) == 0 {
		return nil, fmt.Errorf("wire: extract of shard %d answered shard %d (%d packet bytes)", shard, res.shard, len(res.packet))
	}
	return res.packet, nil
}

// InstallShard adopts an extracted packet into the named slot — step
// two of a live migration. The slot must be frozen and unused; the
// engine validates the packet's fingerprint before touching anything.
func (c *MuxClient) InstallShard(ctx context.Context, shard int, packet []byte) error {
	res, err := c.adminCall(ctx, func(tag uint64) []byte {
		return AppendShardInstall(c.w.getBuf(), tag, shard, packet)
	})
	if err != nil {
		return err
	}
	if res.shard != shard {
		return fmt.Errorf("wire: install of shard %d acked shard %d", shard, res.shard)
	}
	return nil
}

// Owners fetches the engine's shard-ownership map: one bool per slot,
// true where it decides traffic. A router bootstraps and audits its
// routing table with this.
func (c *MuxClient) Owners(ctx context.Context) ([]bool, error) {
	res, err := c.adminCall(ctx, func(tag uint64) []byte {
		return AppendOwnersRequest(c.w.getBuf(), tag)
	})
	if err != nil {
		return nil, err
	}
	return res.owned, nil
}
