package wire

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// maxStatsSubs bounds the concurrent stats subscriptions one connection
// may hold open: each costs a goroutine, and a hostile client must not
// be able to mint unbounded ones.
const maxStatsSubs = 16

// minStatsInterval floors a subscription's push cadence so a hostile
// 1 ns interval cannot turn the stats path into a busy loop.
const minStatsInterval = time.Millisecond

// muxConn is one v2 (multiplexed) server connection: a read loop that
// dispatches tagged frames without waiting for prior batches, a single
// writer goroutine that serializes every outbound frame (completions
// arrive on shard goroutines, stats pushes on subscription goroutines),
// and the bookkeeping tying them together.
type muxConn struct {
	eng Engine
	w   *frameWriter // counts batches awaiting their reply as outstanding

	// inflight counts batches handed to SubmitBatchAsync whose
	// completions have not yet enqueued their reply frame; connection
	// teardown waits for it so no completion touches a freed writer.
	inflight sync.WaitGroup

	// subs maps subscription tags to their stop channels; smu guards it.
	smu    sync.Mutex
	subs   map[uint64]chan struct{}
	subsWG sync.WaitGroup
}

// serveMux runs one v2 connection. The client's hello has already been
// read (that is how the listener knew to come here); everything else —
// including the hello reply — goes through the writer.
func serveMux(conn net.Conn, br *bufio.Reader, hello []byte, eng Engine) {
	version, err := DecodeHello(hello)
	if err != nil || version < ProtocolV2 {
		if err == nil {
			err = fmt.Errorf("wire: unsupported protocol version %d (server speaks %d)", version, ProtocolV2)
		}
		bw := bufio.NewWriter(conn)
		if werr := WriteFrame(bw, appendErrorPayload(nil, err.Error())); werr == nil {
			_ = bw.Flush()
		}
		conn.Close()
		return
	}

	c := &muxConn{
		eng:  eng,
		w:    newFrameWriter(conn, 0),
		subs: make(map[uint64]chan struct{}),
	}
	go c.w.loop()
	c.w.send(AppendHello(c.w.getBuf(), ProtocolV2))

	c.readLoop(br)

	// Teardown order matters: stop the subscription tickers, wait out
	// in-flight batch completions (the shard loops always answer, so this
	// terminates), then let the writer drain whatever they enqueued and
	// exit. Writes to a dead peer fail silently inside the writer.
	c.stopAllSubs()
	c.subsWG.Wait()
	c.inflight.Wait()
	c.w.stop()
	<-c.w.done
	conn.Close()
}

// readLoop accepts frames until the client goes away or commits an
// unscopable protocol violation. Tagged failures — a bad batch body, a
// drained server, one subscription too many — answer a tagged error and
// keep the connection; only unparseable framing kills it.
func (c *muxConn) readLoop(br *bufio.Reader) {
	ctx := context.Background()
	var rbuf []byte
	var queries []Query
	var names interner
	for {
		payload, err := ReadFrame(br, rbuf)
		if err != nil {
			return
		}
		rbuf = payload[:0]

		switch {
		case len(payload) > 0 && payload[0] == msgTaggedQueryBatch:
			// Stage timing is paid only while tracing is live: one clock
			// read pair per BATCH, amortized over its queries.
			traceOn := c.eng.TraceEnabled()
			var decStart time.Time
			if traceOn {
				decStart = time.Now()
			}
			// The tag is parsed first so any body error can be scoped to
			// it; only an unparseable tag kills the connection.
			tag, rest, terr := consumeUvarint(payload[1:])
			if terr != nil {
				c.w.send(appendErrorPayload(nil, terr.Error()))
				return
			}
			queries, err = consumeQueryItemsInterned(rest, queries, &names)
			if err != nil {
				c.w.send(AppendTaggedError(nil, tag, err.Error()))
				continue
			}
			var decodeNanos int64
			if traceOn {
				decodeNanos = time.Since(decStart).Nanoseconds()
			}
			// The engine owns the batch until the completion fires, so it
			// gets its own slice — the next frame reuses the read buffer.
			batch := make([]Query, len(queries))
			copy(batch, queries)
			c.inflight.Add(1)
			c.w.outstanding.Add(1)
			t := tag
			err := c.eng.SubmitBatchAsync(ctx, batch, decodeNanos, func(replies []Reply) {
				defer c.inflight.Done()
				var encStart time.Time
				if traceOn {
					encStart = time.Now()
				}
				frame := AppendTaggedReplyBatch(c.w.getBuf(), t, replies)
				if traceOn {
					// Back-fill the encode stage into the sampled records:
					// the shard published them before the reply bytes
					// existed.
					c.eng.BackfillEncode(replies, time.Since(encStart).Nanoseconds())
				}
				c.w.outstanding.Add(-1)
				c.w.send(frame)
			})
			if err != nil {
				// ErrServerClosed during drain — or a malformed budget in the
				// batch body: this batch fails, the connection survives to
				// serve the client's other tags.
				c.inflight.Done()
				c.w.outstanding.Add(-1)
				c.w.send(AppendTaggedError(nil, tag, err.Error()))
			}

		case len(payload) > 0 && payload[0] == msgStatsSubscribe:
			tag, intervalSec, err := DecodeStatsSubscribe(payload)
			if err != nil {
				c.w.send(appendErrorPayload(nil, err.Error()))
				return
			}
			c.startSub(tag, intervalSec, "stats ", func() { c.pushStats(tag) })

		case len(payload) > 0 && payload[0] == msgStatsUnsubscribe:
			tag, err := DecodeStatsUnsubscribe(payload)
			if err != nil {
				c.w.send(appendErrorPayload(nil, err.Error()))
				return
			}
			c.stopSub(tag)

		case len(payload) > 0 && payload[0] == msgTraceRequest:
			tag, tenant, template, n, err := DecodeTraceRequest(payload)
			if err != nil {
				c.w.send(appendErrorPayload(nil, err.Error()))
				return
			}
			if n > MaxBatch {
				n = MaxBatch
			}
			frame, err := AppendTracePush(nil, tag, c.eng.TraceViewSnapshot(tenant, template, int(n)))
			if err != nil {
				c.w.send(AppendTaggedError(nil, tag, err.Error()))
				continue
			}
			c.w.send(frame)

		case len(payload) > 0 && payload[0] == msgEventsRequest:
			tag, typ, tenant, n, err := DecodeEventsRequest(payload)
			if err != nil {
				c.w.send(appendErrorPayload(nil, err.Error()))
				return
			}
			if n > MaxBatch {
				n = MaxBatch
			}
			frame, err := AppendEventsPush(nil, tag, c.eng.EventsViewSnapshot(typ, tenant, int(n)))
			if err != nil {
				c.w.send(AppendTaggedError(nil, tag, err.Error()))
				continue
			}
			c.w.send(frame)

		case len(payload) > 0 && payload[0] == msgEventsSubscribe:
			tag, intervalSec, err := DecodeEventsSubscribe(payload)
			if err != nil {
				c.w.send(appendErrorPayload(nil, err.Error()))
				return
			}
			// Each installment carries only the events this stream has
			// not yet seen, cursored by journal sequence number.
			var cursor int64
			c.startSub(tag, intervalSec, "", func() { cursor = c.pushEvents(tag, cursor) })

		case len(payload) > 0 && payload[0] == msgEventsUnsubscribe:
			tag, err := DecodeEventsUnsubscribe(payload)
			if err != nil {
				c.w.send(appendErrorPayload(nil, err.Error()))
				return
			}
			c.stopSub(tag)

		case IsSnapshotRequest(payload):
			// The v1 admin checkpoint works under v2 too: the reply is
			// untagged, but the requester knows what it asked for.
			path, size, err := c.eng.Checkpoint()
			if err != nil {
				c.w.send(appendErrorPayload(nil, err.Error()))
			} else {
				c.w.send(AppendSnapshotReply(nil, path, size))
			}

		// Shard checkpoint-transfer admin: every failure is scoped to the
		// requesting tag — a refused migration step must never take down
		// the connection carrying the cluster's control plane.
		case len(payload) > 0 && payload[0] == msgShardFreeze:
			tag, shard, err := DecodeShardFreeze(payload)
			if err != nil {
				c.w.send(appendErrorPayload(nil, err.Error()))
				return
			}
			if err := c.eng.FreezeShard(shard); err != nil {
				c.w.send(AppendTaggedError(nil, tag, err.Error()))
			} else {
				c.w.send(AppendShardAck(nil, tag, shard))
			}

		case len(payload) > 0 && payload[0] == msgShardExtract:
			tag, shard, err := DecodeShardExtract(payload)
			if err != nil {
				c.w.send(appendErrorPayload(nil, err.Error()))
				return
			}
			packet, err := c.eng.ExtractShardPacket(shard)
			if err != nil {
				c.w.send(AppendTaggedError(nil, tag, err.Error()))
			} else {
				c.w.send(AppendShardState(nil, tag, shard, packet))
			}

		case len(payload) > 0 && payload[0] == msgShardInstall:
			tag, shard, packet, err := DecodeShardInstall(payload)
			if err != nil {
				c.w.send(appendErrorPayload(nil, err.Error()))
				return
			}
			if err := c.eng.InstallShardPacket(shard, packet); err != nil {
				c.w.send(AppendTaggedError(nil, tag, err.Error()))
			} else {
				c.w.send(AppendShardAck(nil, tag, shard))
			}

		case len(payload) > 0 && payload[0] == msgOwnersRequest:
			tag, err := DecodeOwnersRequest(payload)
			if err != nil {
				c.w.send(appendErrorPayload(nil, err.Error()))
				return
			}
			c.w.send(AppendOwnersReply(nil, tag, c.eng.OwnedShards()))

		default:
			c.w.send(appendErrorPayload(nil, fmt.Sprintf("wire: unexpected v2 message type %d", firstByte(payload))))
			return
		}
	}
}

func firstByte(p []byte) byte {
	if len(p) == 0 {
		return 0
	}
	return p[0]
}

// startSub opens one server-pushed stream: push runs once immediately,
// then every interval. A non-positive (or non-finite) interval is the
// one-shot form — push once, auto-close. Stats and events streams share
// the tag space and the per-connection cap; subscribing an active tag
// or exceeding the cap answers a tagged error naming kind.
func (c *muxConn) startSub(tag uint64, intervalSec float64, kind string, push func()) {
	interval := time.Duration(0)
	if intervalSec > 0 { // NaN compares false: one-shot
		interval = time.Duration(intervalSec * float64(time.Second))
		if interval < minStatsInterval {
			interval = minStatsInterval
		}
	}
	c.smu.Lock()
	if _, dup := c.subs[tag]; dup {
		c.smu.Unlock()
		c.w.send(AppendTaggedError(nil, tag, "wire: "+kind+"subscription tag already active"))
		return
	}
	if interval > 0 && len(c.subs) >= maxStatsSubs {
		c.smu.Unlock()
		c.w.send(AppendTaggedError(nil, tag, fmt.Sprintf("wire: too many %ssubscriptions (max %d)", kind, maxStatsSubs)))
		return
	}
	var stop chan struct{}
	if interval > 0 {
		stop = make(chan struct{})
		c.subs[tag] = stop
	}
	c.smu.Unlock()

	push()
	if interval == 0 {
		return
	}
	c.subsWG.Add(1)
	go func() {
		defer c.subsWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				push()
			case <-stop:
				return
			}
		}
	}()
}

// pushStats snapshots the engine and enqueues one tagged push frame.
func (c *muxConn) pushStats(tag uint64) {
	payload, err := AppendStatsPush(nil, tag, c.eng.Stats())
	if err != nil {
		c.w.send(AppendTaggedError(nil, tag, err.Error()))
		return
	}
	c.w.send(payload)
}

// pushEvents enqueues one cursored events installment and returns the
// advanced cursor.
func (c *muxConn) pushEvents(tag uint64, since int64) int64 {
	view, cursor := c.eng.EventsViewSince(since)
	payload, err := AppendEventsPush(nil, tag, view)
	if err != nil {
		c.w.send(AppendTaggedError(nil, tag, err.Error()))
		return cursor
	}
	c.w.send(payload)
	return cursor
}

// stopSub ends one subscription; unknown tags are a no-op (the stream
// may have been one-shot, or already closed).
func (c *muxConn) stopSub(tag uint64) {
	c.smu.Lock()
	stop, ok := c.subs[tag]
	if ok {
		delete(c.subs, tag)
	}
	c.smu.Unlock()
	if ok {
		close(stop)
	}
}

// stopAllSubs ends every subscription at connection teardown.
func (c *muxConn) stopAllSubs() {
	c.smu.Lock()
	subs := c.subs
	c.subs = make(map[uint64]chan struct{})
	c.smu.Unlock()
	for _, stop := range subs {
		close(stop)
	}
}
