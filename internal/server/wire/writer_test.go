package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// recordConn captures everything written to it, one Write per flush.
type recordConn struct {
	net.Conn
	mu     sync.Mutex
	buf    bytes.Buffer
	writes int
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	return c.buf.Write(p)
}

func (c *recordConn) Close() error { return nil }

// TestFrameWriterStopDrainsQueue: frames queued before stop are all
// written, in order, and a burst found at one wakeup shares one flush.
func TestFrameWriterStopDrainsQueue(t *testing.T) {
	rc := &recordConn{}
	w := newFrameWriter(rc, 0)
	w.outstanding.Store(3) // stopping must win over the yield gate
	var want [][]byte
	for i := range 5 {
		p := AppendTaggedError(w.getBuf(), uint64(i+1), fmt.Sprintf("frame %d", i))
		want = append(want, bytes.Clone(p))
		w.send(p)
	}
	w.stop()
	go w.loop()
	select {
	case <-w.done:
	case <-time.After(5 * time.Second):
		t.Fatal("writer did not exit after stop")
	}
	if rc.writes != 1 {
		t.Errorf("%d writes for one queued burst, want 1", rc.writes)
	}
	br := bufio.NewReader(&rc.buf)
	for i, p := range want {
		got, err := ReadFrame(br, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d = %x, want %x", i, got, p)
		}
	}
	if _, err := ReadFrame(br, nil); err != io.EOF {
		t.Fatalf("bytes after the last frame: %v", err)
	}
}

// TestFrameWriterWriteErrorClosesConn: the first failed write closes
// the conn so the owner's reader sees the connection die; later sends
// never block, and stop still ends the loop.
func TestFrameWriterWriteErrorClosesConn(t *testing.T) {
	local, peer := net.Pipe()
	defer peer.Close()
	cc := &countingConn{Conn: local}
	cc.fail.Store(true)
	w := newFrameWriter(cc, 0)
	go w.loop()
	w.send(AppendOwnersRequest(w.getBuf(), 1))

	readErr := make(chan error, 1)
	go func() {
		_, err := peer.Read(make([]byte, 1))
		readErr <- err
	}()
	select {
	case err := <-readErr:
		if err != io.EOF {
			t.Fatalf("peer read after a failed write: %v, want EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write error did not close the conn")
	}
	for i := range 100 {
		w.send(AppendOwnersRequest(w.getBuf(), uint64(i+2)))
	}
	w.stop()
	select {
	case <-w.done:
	case <-time.After(5 * time.Second):
		t.Fatal("writer did not exit after stop")
	}
}

// TestMuxLoneFramesNotDelayed: one caller submitting sequentially never
// has other work outstanding, so every frame is its own write on both
// ends — the yield-once rule cannot hold a lone request back to batch it.
func TestMuxLoneFramesNotDelayed(t *testing.T) {
	addr, srvConns := serveStub(t, newStubEngine(t, nil))
	cl, cc, sc := dialCounted(t, addr, srvConns)
	const n = 50
	qs := []Query{{Tenant: "lone", Template: "Q6"}}
	for i := range n {
		if _, err := cl.Submit(context.Background(), qs); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// One more write each for the hello exchange.
	if got := cc.writes.Load(); got != n+1 {
		t.Errorf("client made %d writes for %d frames, want one each", got, n+1)
	}
	if got := sc.writes.Load(); got != n+1 {
		t.Errorf("server made %d writes for %d frames, want one each", got, n+1)
	}
}

// submitHeld starts k Submits against a stub engine whose gate is
// closed and waits until the engine holds all of them.
func submitHeld(t *testing.T, cl *MuxClient, eng *stubEngine, k int) chan error {
	t.Helper()
	errs := make(chan error, k+1)
	for range k {
		go func() {
			_, err := cl.Submit(context.Background(), []Query{{Tenant: "held", Template: "Q6"}})
			errs <- err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.received.Load() < int64(k) {
		if time.Now().After(deadline) {
			t.Fatalf("engine holds %d of %d batches", eng.received.Load(), k)
		}
		time.Sleep(time.Millisecond)
	}
	return errs
}

// expectClosed collects k call results and requires each to be the
// connection-death error.
func expectClosed(t *testing.T, errs <-chan error, k int) {
	t.Helper()
	for i := range k {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClientClosed) {
				t.Fatalf("call %d: %v, want ErrClientClosed", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d still in flight after a write error", i)
		}
	}
}

// TestMuxClientWriteErrorFailsInFlight: a failed client write closes the
// connection, and every call in flight on it fails.
func TestMuxClientWriteErrorFailsInFlight(t *testing.T) {
	gate := make(chan struct{})
	eng := newStubEngine(t, gate)
	addr, srvConns := serveStub(t, eng)
	cl, cc, _ := dialCounted(t, addr, srvConns)
	defer close(gate) // lets the server's teardown wait out its batches
	const k = 4
	errs := submitHeld(t, cl, eng, k)
	cc.fail.Store(true)
	go func() {
		_, err := cl.Submit(context.Background(), []Query{{Tenant: "doomed", Template: "Q6"}})
		errs <- err
	}()
	expectClosed(t, errs, k+1)
}

// TestMuxServerWriteErrorFailsInFlight: a failed server write closes the
// connection, and every call the client has in flight on it fails.
func TestMuxServerWriteErrorFailsInFlight(t *testing.T) {
	gate := make(chan struct{})
	eng := newStubEngine(t, gate)
	addr, srvConns := serveStub(t, eng)
	cl, _, sc := dialCounted(t, addr, srvConns)
	const k = 4
	errs := submitHeld(t, cl, eng, k)
	sc.fail.Store(true)
	close(gate)
	expectClosed(t, errs, k)
}

// TestPersistentMuxMarkDeadClosesClient: a client the pool drops is
// closed — its goroutines and both ends of its socket go away — and the
// next Get dials a fresh one.
func TestPersistentMuxMarkDeadClosesClient(t *testing.T) {
	addr, _ := serveStub(t, newStubEngine(t, nil))
	base := runtime.NumGoroutine()
	p := NewPersistentMux(addr)
	defer p.Close()
	qs := []Query{{Tenant: "pool", Template: "Q6"}}

	old, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Submit(context.Background(), qs); err != nil {
		t.Fatal(err)
	}
	p.MarkDead(old)
	select {
	case <-old.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("MarkDead left the dropped client open")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after MarkDead, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}

	fresh, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	if fresh == old {
		t.Fatal("Get handed out the dropped client again")
	}
	if _, err := fresh.Submit(context.Background(), qs); err != nil {
		t.Fatal(err)
	}
	if got := p.Reconnects(); got != 1 {
		t.Errorf("Reconnects() = %d, want 1", got)
	}
}
