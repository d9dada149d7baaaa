package wire

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// PersistentMux is a MuxClient that survives its connection: when the
// backend drops or restarts, the next Get redials with exponential
// backoff (the listener's transient-error schedule: 5 ms doubling to
// 1 s) instead of failing forever. Between attempts Get fails fast, so
// callers — a router fanning a batch out — never block behind a dead
// backend; they answer per-item errors and retry on a later request.
//
// Reconnection is deliberately NOT transparent at the call level: a
// Submit that died mid-flight is never resent, because the backend may
// have decided the batch before the connection broke, and economy
// decisions must happen exactly once. The caller sees the error and
// owns the retry policy.
type PersistentMux struct {
	addr string

	mu        sync.Mutex
	cl        *MuxClient
	delay     time.Duration
	nextTry   time.Time
	connected bool // a dial has succeeded at least once
	closed    bool

	// reconnects counts successful re-dials after the first connect —
	// the router's /metrics surfaces it per backend.
	reconnects atomic.Int64
}

// redialBase and redialMax bound the backoff between dial attempts.
const (
	redialBase = 5 * time.Millisecond
	redialMax  = time.Second
)

// NewPersistentMux wraps a backend address. No connection is opened
// until the first Get.
func NewPersistentMux(addr string) *PersistentMux {
	return &PersistentMux{addr: addr}
}

// Addr returns the backend address this pool dials.
func (p *PersistentMux) Addr() string { return p.addr }

// Reconnects reports how many times the pool has successfully re-dialed
// after losing an established connection.
func (p *PersistentMux) Reconnects() int64 { return p.reconnects.Load() }

// Get returns a live client, dialing if necessary. During backoff after
// a failed dial it fails immediately — a dead backend costs its callers
// an error, not a stall. A client whose connection died is closed as it
// is replaced, outside the lock, so its socket is released.
func (p *PersistentMux) Get() (*MuxClient, error) {
	var dropped *MuxClient
	p.mu.Lock()
	defer func() {
		p.mu.Unlock()
		if dropped != nil {
			dropped.Close()
		}
	}()
	if p.closed {
		return nil, ErrClientClosed
	}
	if p.cl != nil {
		select {
		case <-p.cl.Done():
			// The connection died underneath us; fall through to redial.
			dropped, p.cl = p.cl, nil
		default:
			return p.cl, nil
		}
	}
	now := time.Now()
	if now.Before(p.nextTry) {
		return nil, fmt.Errorf("wire: backend %s down, retrying in %s", p.addr, time.Until(p.nextTry).Round(time.Millisecond))
	}
	cl, err := DialMux(p.addr)
	if err != nil {
		if p.delay == 0 {
			p.delay = redialBase
		} else if p.delay *= 2; p.delay > redialMax {
			p.delay = redialMax
		}
		p.nextTry = now.Add(p.delay)
		return nil, fmt.Errorf("wire: dial %s: %w", p.addr, err)
	}
	if p.connected {
		// Anything after the first successful dial is a reconnect.
		p.reconnects.Add(1)
	}
	p.connected = true
	p.delay = 0
	p.nextTry = time.Time{}
	p.cl = cl
	return cl, nil
}

// MarkDead drops and closes a client the caller observed failing, so
// the next Get redials instead of handing the same dead connection out
// again. A no-op if the pool has already moved on (and closed it).
func (p *PersistentMux) MarkDead(cl *MuxClient) {
	p.mu.Lock()
	drop := p.cl == cl
	if drop {
		p.cl = nil
	}
	p.mu.Unlock()
	if drop {
		cl.Close()
	}
}

// Close closes the pooled connection and stops future dials.
func (p *PersistentMux) Close() error {
	p.mu.Lock()
	cl := p.cl
	p.cl = nil
	p.closed = true
	p.mu.Unlock()
	if cl != nil {
		return cl.Close()
	}
	return nil
}
