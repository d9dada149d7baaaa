package wire

import (
	"bufio"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
)

// maxFreeBufs bounds the recycled-payload free list; maxFreeBufCap keeps
// one oversized frame (a fat stats push, a shard-state packet) from
// pinning megabytes in the pool.
const (
	maxFreeBufs   = 64
	maxFreeBufCap = 1 << 20
)

// frameWriter is the one outbound path of a v2 connection, on either
// end: any goroutine enqueues encoded payloads with send, which never
// blocks, and a single writer goroutine drains the queue into a 64 KiB
// buffered writer, flushing once per drained burst so frames that queue
// up together share one write(2).
//
// Under a pipelined load the writer usually wakes to a lone frame: the
// goroutines that will produce the next ones are runnable but have not
// run yet. So when exactly one frame is queued while other tagged work
// is outstanding on the connection, the writer yields the processor
// once before taking the queue, letting those goroutines enqueue into
// the same flush. With no other work outstanding — a lone request, the
// admin and stats frames — it never yields, so a lone request is never
// delayed.
type frameWriter struct {
	conn net.Conn
	bw   *bufio.Writer

	// mu guards the queue and the pools below; cond wakes the writer.
	// The queue is bounded in practice by the peer's in-flight window.
	mu       sync.Mutex
	cond     *sync.Cond
	queue    [][]byte
	stopping bool

	// free recycles spent payload buffers back to encoders, and spare
	// recycles the queue's own backing array across drains, so a steady
	// pipelined load enqueues frames without allocating.
	free  [][]byte
	spare [][]byte

	// outstanding counts the connection's tagged work still in progress;
	// its owner maintains it. A lone queued frame yields only while
	// outstanding exceeds self, the share that frame itself may account
	// for: 0 on the server, whose batches leave the count before their
	// reply is enqueued, and 1 on the client, whose calls join it before
	// their request is.
	outstanding atomic.Int64
	self        int64

	done chan struct{} // closed when the write loop has exited
}

// newFrameWriter wraps conn. The owner runs loop on its own goroutine;
// until then it may use bw directly for a lockstep handshake.
func newFrameWriter(conn net.Conn, self int64) *frameWriter {
	w := &frameWriter{
		conn: conn,
		bw:   bufio.NewWriterSize(conn, 64<<10),
		self: self,
		done: make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// send enqueues one encoded payload. Never blocks; safe from any
// goroutine. The writer owns the payload from here on and recycles it.
func (w *frameWriter) send(payload []byte) {
	w.mu.Lock()
	if w.queue == nil && w.spare != nil {
		w.queue, w.spare = w.spare, nil
	}
	w.queue = append(w.queue, payload)
	w.mu.Unlock()
	w.cond.Signal()
}

// getBuf returns a recycled payload buffer (length 0) for an encoder to
// append into, or nil when the free list is empty — append grows nil
// fine.
func (w *frameWriter) getBuf() []byte {
	w.mu.Lock()
	var b []byte
	if n := len(w.free); n > 0 {
		b = w.free[n-1][:0]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
	}
	w.mu.Unlock()
	return b
}

// stop tells the loop to exit once the queue is empty; frames already
// queued are still written. done closes when it has.
func (w *frameWriter) stop() {
	w.mu.Lock()
	w.stopping = true
	w.mu.Unlock()
	w.cond.Signal()
}

// loop serializes all outbound frames, one flush per drained burst. A
// write error closes the conn: a dropped frame poisons the multiplexed
// stream (its tag would wait forever on the peer), so the owner's read
// loop must observe the close and tear the connection down. The loop
// keeps draining (and discarding) so senders are never stuck, and exits
// once stopping with an empty queue.
func (w *frameWriter) loop() {
	defer close(w.done)
	var dead bool
	for {
		w.mu.Lock()
		for len(w.queue) == 0 && !w.stopping {
			w.cond.Wait()
		}
		if len(w.queue) == 0 {
			w.mu.Unlock()
			return
		}
		if len(w.queue) == 1 && !w.stopping && !dead && w.outstanding.Load() > w.self {
			w.mu.Unlock()
			runtime.Gosched()
			w.mu.Lock()
		}
		batch := w.queue
		w.queue = nil
		w.mu.Unlock()

		if !dead {
			if err := w.write(batch); err != nil {
				dead = true
				w.conn.Close()
			}
		}
		w.recycle(batch)
	}
}

// write buffers a burst and flushes it once.
func (w *frameWriter) write(batch [][]byte) error {
	for _, p := range batch {
		if err := WriteFrame(w.bw, p); err != nil {
			return err
		}
	}
	return w.bw.Flush()
}

// recycle returns a drained burst to the pools: the payload buffers feed
// getBuf, the backing array becomes the next queue slice.
func (w *frameWriter) recycle(batch [][]byte) {
	w.mu.Lock()
	for i, p := range batch {
		if len(w.free) < maxFreeBufs && cap(p) <= maxFreeBufCap {
			w.free = append(w.free, p[:0])
		}
		batch[i] = nil
	}
	if w.spare == nil {
		w.spare = batch[:0]
	}
	w.mu.Unlock()
}
