package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/server"
)

// stubEngine answers every batch from one worker goroutine, the way a
// shard loop does, with canned replies: the wire layer's cost without
// the economy behind it. When gate is set the worker waits on it before
// each answer, which holds batches in flight for the failure tests.
type stubEngine struct {
	jobs     chan stubJob
	quit     chan struct{}
	gate     chan struct{}
	received atomic.Int64
	replies  []Reply
}

type stubJob struct {
	n    int
	done func([]Reply)
}

var errStub = errors.New("wire: not supported by the stub engine")

func newStubEngine(tb testing.TB, gate chan struct{}) *stubEngine {
	e := &stubEngine{
		jobs:    make(chan stubJob, 1024),
		quit:    make(chan struct{}),
		gate:    gate,
		replies: make([]Reply, 64),
	}
	for i := range e.replies {
		e.replies[i].Resp = server.Response{Shard: 1, Template: "Q6", Selectivity: 0.01, Location: "cloud", ResponseTimeSec: 0.5, ChargedUSD: 1e-4}
	}
	go func() {
		for {
			select {
			case j := <-e.jobs:
				if e.gate != nil {
					<-e.gate
				}
				j.done(e.replies[:j.n])
			case <-e.quit:
				return
			}
		}
	}()
	tb.Cleanup(func() { close(e.quit) })
	return e
}

func (e *stubEngine) SubmitBatchAsync(_ context.Context, qs []Query, _ int64, done func([]Reply)) error {
	if len(qs) > len(e.replies) {
		return fmt.Errorf("wire: stub engine answers at most %d queries", len(e.replies))
	}
	e.received.Add(1)
	select {
	case e.jobs <- stubJob{n: len(qs), done: done}:
		return nil
	case <-e.quit:
		return server.ErrServerClosed
	}
}

func (e *stubEngine) SubmitBatch(context.Context, []Query, int64) ([]Reply, error) {
	return nil, errStub
}
func (e *stubEngine) Stats() server.Stats { return server.Stats{} }
func (e *stubEngine) TraceViewSnapshot(string, string, int) server.TraceView {
	return server.TraceView{}
}
func (e *stubEngine) EventsViewSnapshot(string, string, int) server.EventsView {
	return server.EventsView{}
}
func (e *stubEngine) EventsViewSince(since int64) (server.EventsView, int64) {
	return server.EventsView{}, since
}
func (e *stubEngine) Checkpoint() (string, int64, error)     { return "", 0, errStub }
func (e *stubEngine) FreezeShard(int) error                  { return errStub }
func (e *stubEngine) ExtractShardPacket(int) ([]byte, error) { return nil, errStub }
func (e *stubEngine) InstallShardPacket(int, []byte) error   { return errStub }
func (e *stubEngine) OwnedShards() []bool                    { return nil }
func (e *stubEngine) TraceEnabled() bool                     { return false }
func (e *stubEngine) BackfillEncode([]Reply, int64)          {}

// countingConn counts Write calls — each one a write(2) on a TCP conn —
// and fails every write once fail is set.
type countingConn struct {
	net.Conn
	writes atomic.Int64
	fail   atomic.Bool
}

var errInjected = errors.New("injected write failure")

func (c *countingConn) Write(p []byte) (int, error) {
	if c.fail.Load() {
		return 0, errInjected
	}
	// Counted before the write, so a peer that has read the bytes also
	// sees the count.
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countingListener wraps every accepted conn in a countingConn and hands
// it to the test on conns.
type countingListener struct {
	net.Listener
	conns chan *countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: conn}
	l.conns <- cc
	return cc, nil
}

// serveStub serves eng on a loopback listener whose accepted conns are
// counted; it returns the address and the server-side conns.
func serveStub(tb testing.TB, eng Engine) (string, <-chan *countingConn) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	cl := &countingListener{Listener: ln, conns: make(chan *countingConn, 16)}
	served := make(chan error, 1)
	go func() { served <- ServeEngine(cl, eng) }()
	tb.Cleanup(func() {
		ln.Close()
		if err := <-served; err != nil {
			tb.Errorf("ServeEngine: %v", err)
		}
	})
	return ln.Addr().String(), cl.conns
}

// dialCounted opens a MuxClient over a counted conn to addr and returns
// it with both ends' counters.
func dialCounted(tb testing.TB, addr string, srvConns <-chan *countingConn) (*MuxClient, *countingConn, *countingConn) {
	tb.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	cc := &countingConn{Conn: conn}
	cl, err := NewMuxClient(cc)
	if err != nil {
		conn.Close()
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cl.Close() })
	return cl, cc, <-srvConns
}

// BenchmarkMuxPipelined is the cluster path's wire layer alone: 32
// goroutines share one MuxClient, each submitting batch=1 over loopback
// to a stub engine. writes/frame counts write calls on both ends per
// frame sent (one request and one reply per op); 1 means no two frames
// ever shared a flush.
func BenchmarkMuxPipelined(b *testing.B) {
	addr, srvConns := serveStub(b, newStubEngine(b, nil))
	cl, cc, sc := dialCounted(b, addr, srvConns)
	qs := []Query{{Tenant: "bench", Template: "Q6"}}
	ctx := context.Background()
	const callers = 32

	cc.writes.Store(0)
	sc.writes.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if _, err := cl.Submit(ctx, qs); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(cc.writes.Load()+sc.writes.Load())/float64(2*b.N), "writes/frame")
}

// codecBatch returns n queries and n replies in the cluster workload's
// shape: named tenant and template, no budget, a decided response.
func codecBatch(n int) ([]Query, []Reply) {
	qs := make([]Query, n)
	rs := make([]Reply, n)
	for i := range qs {
		qs[i] = Query{Tenant: fmt.Sprintf("tenant-%d", i%8), Template: "Q6"}
		rs[i].Resp = server.Response{QueryID: int64(i), Shard: i % 4, Template: "Q6", Selectivity: 0.01, ArrivalSec: 12.5, Location: "cloud", ResponseTimeSec: 0.5, ChargedUSD: 1e-4, ProfitUSD: 2e-5}
	}
	return qs, rs
}

// decodeQueryFrame is the server read loop's decode: tag, then the items
// through a per-connection interner.
func decodeQueryFrame(payload []byte, qs []Query, names *interner) ([]Query, error) {
	_, rest, err := consumeUvarint(payload[1:])
	if err != nil {
		return nil, err
	}
	return consumeQueryItemsInterned(rest, qs, names)
}

// BenchmarkTaggedQueryBatch encodes and decodes the request frame, each
// into reused buffers, as the client's Submit and the server's read
// loop do.
func BenchmarkTaggedQueryBatch(b *testing.B) {
	for _, n := range []int{1, 64} {
		qs, _ := codecBatch(n)
		b.Run(fmt.Sprintf("encode/batch=%d", n), func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for b.Loop() {
				var err error
				if buf, err = AppendTaggedQueryBatch(buf[:0], 7, qs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("decode/batch=%d", n), func(b *testing.B) {
			payload, err := AppendTaggedQueryBatch(nil, 7, qs)
			if err != nil {
				b.Fatal(err)
			}
			var names interner
			out := make([]Query, 0, n)
			b.ReportAllocs()
			for b.Loop() {
				if out, err = decodeQueryFrame(payload, out, &names); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTaggedReplyBatch encodes and decodes the reply frame. The
// client decodes into a fresh slice per call (the caller owns it), so
// decode allocates by design.
func BenchmarkTaggedReplyBatch(b *testing.B) {
	for _, n := range []int{1, 64} {
		_, rs := codecBatch(n)
		b.Run(fmt.Sprintf("encode/batch=%d", n), func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for b.Loop() {
				buf = AppendTaggedReplyBatch(buf[:0], 7, rs)
			}
		})
		b.Run(fmt.Sprintf("decode/batch=%d", n), func(b *testing.B) {
			payload := AppendTaggedReplyBatch(nil, 7, rs)
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := DecodeTaggedReplyBatch(payload, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTaggedFrameSteadyStateAllocs gates the codec paths that allocate
// nothing once their buffers are warm: encoding either tagged frame and
// the server's interned decode of a query batch.
func TestTaggedFrameSteadyStateAllocs(t *testing.T) {
	qs, rs := codecBatch(64)
	qbuf, err := AppendTaggedQueryBatch(nil, 7, qs)
	if err != nil {
		t.Fatal(err)
	}
	rbuf := AppendTaggedReplyBatch(nil, 7, rs)
	var names interner
	out := make([]Query, 0, len(qs))
	if out, err = decodeQueryFrame(qbuf, out, &names); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"encode query batch", func() { qbuf, _ = AppendTaggedQueryBatch(qbuf[:0], 7, qs) }},
		{"decode query batch", func() { out, _ = decodeQueryFrame(qbuf, out, &names) }},
		{"encode reply batch", func() { rbuf = AppendTaggedReplyBatch(rbuf[:0], 7, rs) }},
	} {
		if allocs := testing.AllocsPerRun(100, c.f); allocs != 0 {
			t.Errorf("warm %s allocates %.1f times per call, want 0", c.name, allocs)
		}
	}
	if len(out) != len(qs) {
		t.Fatalf("decoded %d queries, want %d", len(out), len(qs))
	}
}
