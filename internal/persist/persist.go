// Package persist serializes the serving layer's durable state — every
// shard's economy (market residency, per-structure ownership, invest
// backoff, tenant ledgers), cache, counters and RNG — into a versioned
// binary snapshot, and restores it byte-for-byte. A drained cloudcached
// no longer cold-starts: it resumes the exact accounts, regret ledgers
// and resident structures it shut down with.
//
// The format is deliberately paranoid about partial writes and bit rot:
//
//	file    := magic "CCSNAP" | u16 version (LE)
//	frame   := u32 len (LE) | payload | u32 crc32-IEEE(payload) (LE)
//	file    := header | frame(meta) | frame(shard) × meta.Shards
//
// Every frame is length-prefixed and CRC-checked, so truncation or
// corruption anywhere fails decoding cleanly — the caller boots fresh
// instead of loading partial state. Inside frames, integers ride
// varints, money rides its fixed-point int64, times ride nanosecond
// varints and floats ride IEEE-754 bits, so encode(decode(x)) == x
// exactly. Writes go through a temp file and an atomic rename: a crash
// mid-checkpoint leaves the previous snapshot intact.
//
// The decoder never panics on hostile input and never allocates more
// than a small multiple of the input size (every count is validated
// against the bytes that remain), which the FuzzSnapshotDecode target
// enforces.
package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/binenc"
	"repro/internal/cache"
	"repro/internal/cost"
	"repro/internal/economy"
	"repro/internal/metrics"
	"repro/internal/money"
	"repro/internal/scheme"
	"repro/internal/structure"
)

// Version is the current snapshot format version. Decoders reject
// versions they do not know; bumping this is how incompatible layout
// changes stay loud. v2 added the ledgers' RegretDropped counter.
const Version = 2

// magic identifies a snapshot file.
var magic = [6]byte{'C', 'C', 'S', 'N', 'A', 'P'}

// shardMagic identifies a single-shard packet — the unit of live shard
// migration between backends. Distinct from the snapshot magic so a
// shard packet can never be mistaken for (or restored as) a whole
// engine.
var shardMagic = [6]byte{'C', 'C', 'S', 'H', 'R', 'D'}

// Record types inside frames.
const (
	recMeta      byte = 1
	recShard     byte = 2
	recShardMeta byte = 3
)

// MaxShards bounds the shard count a snapshot may claim, far above any
// real deployment but low enough that a corrupt meta frame cannot
// balloon the decode loop.
const MaxShards = 1 << 16

// YieldState is one bypass-scheme yield accumulator (the bypass
// baseline's only scheme state beyond the cache).
type YieldState struct {
	ID    structure.ID
	Bytes int64
}

// ShardState is the complete durable state of one server shard.
type ShardState struct {
	Index int

	// LastNow is the shard's monotone clock clamp.
	LastNow time.Duration

	// Meter is the shard's books: the rent-accrual watermark, the
	// tail-rent window, the rent integrals and the lifetime counters.
	// The codec writes its fields in place, with Errors between
	// Failures and Revenue.
	scheme.Meter
	// Errors counts submissions that ended in an error, not a decision.
	Errors int64

	// RNG is the shard's selectivity-draw generator state, so draws for
	// queries that omit a selectivity continue the exact pre-restart
	// sequence.
	RNG uint64

	// Response is the response-time statistics (running moments plus the
	// percentile reservoir, PRNG included).
	Response metrics.DurationStatsState

	// Cache is the shard's residency state.
	Cache cache.State

	// Economy is the shard's ledgers and market bookkeeping; nil for
	// schemes without an economy (bypass).
	Economy *economy.State

	// Yield holds the bypass scheme's per-column yield accumulators,
	// sorted by ID; nil for economy schemes.
	Yield []YieldState
}

// Snapshot is one serialized engine state.
type Snapshot struct {
	// Scheme and Provider name the configuration the snapshot was taken
	// under; restore validates both so state never silently crosses a
	// reconfiguration.
	Scheme   string
	Provider string
	// CatalogBytes fingerprints the catalog (its total size): a snapshot
	// taken against one catalog must not restore against another.
	CatalogBytes int64
	// NextID is the server's query-ID counter.
	NextID int64
	// Clock is the server clock at snapshot time; a restored daemon
	// resumes its wall clock from here so rent does not replay.
	Clock time.Duration
	// CreatedUnixNano stamps the snapshot (informational).
	CreatedUnixNano int64

	Shards []ShardState
}

// ShardPacket is one shard's state plus the configuration fingerprint
// it was captured under — the unit of live migration. The fingerprint
// mirrors the snapshot meta record: an installing backend validates
// scheme, provider and catalog so shard state never silently crosses a
// reconfiguration, and adopts NextID so query IDs stay monotone across
// the move.
type ShardPacket struct {
	Scheme       string
	Provider     string
	CatalogBytes int64
	// NextID is the source server's query-ID counter at capture time.
	NextID int64
	// Clock is the source server clock at capture time.
	Clock time.Duration
	// CreatedUnixNano stamps the packet (informational).
	CreatedUnixNano int64

	State ShardState
}

// --- primitive codec ------------------------------------------------------
//
// The append/consume primitives live in internal/binenc, shared with
// the wire protocol; creader adapts them to a cursor so record decoders
// read field after field without threading the remainder by hand.

var (
	appendString = binenc.AppendString
	appendF64    = binenc.AppendF64
	appendU64    = binenc.AppendU64
	appendBool   = binenc.AppendBool
)

// creader consumes a payload with bounds-checked primitives. All methods
// return an error instead of panicking on truncated or hostile input.
type creader struct {
	b []byte
}

func (r *creader) len() int { return len(r.b) }

func (r *creader) uvarint() (v uint64, err error) {
	v, r.b, err = binenc.Uvarint(r.b)
	return v, err
}

func (r *creader) varint() (v int64, err error) {
	v, r.b, err = binenc.Varint(r.b)
	return v, err
}

// count reads an element count and validates it against the bytes that
// remain, each element occupying at least minBytes: a corrupt count can
// never make the decoder allocate beyond the input's own size.
func (r *creader) count(minBytes int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if v > uint64(len(r.b)/minBytes) {
		return 0, fmt.Errorf("persist: count %d overruns frame", v)
	}
	return int(v), nil
}

func (r *creader) str() (s string, err error) {
	s, r.b, err = binenc.String(r.b)
	return s, err
}

func (r *creader) f64() (v float64, err error) {
	v, r.b, err = binenc.F64(r.b)
	return v, err
}

func (r *creader) u64() (v uint64, err error) {
	v, r.b, err = binenc.U64(r.b)
	return v, err
}

func (r *creader) byte() (v byte, err error) {
	v, r.b, err = binenc.Byte(r.b)
	return v, err
}

func (r *creader) bool() (bool, error) {
	v, err := r.byte()
	return v != 0, err
}

func (r *creader) amount() (money.Amount, error) {
	v, err := r.varint()
	return money.Amount(v), err
}

func (r *creader) duration() (time.Duration, error) {
	v, err := r.varint()
	return time.Duration(v), err
}

// --- composite codecs -----------------------------------------------------

func appendUsage(b []byte, u cost.Usage) []byte {
	b = appendF64(b, u.CPUSeconds)
	b = binary.AppendVarint(b, u.IOOps)
	b = binary.AppendVarint(b, u.NetBytes)
	b = binary.AppendVarint(b, int64(u.Boots))
	return b
}

func (r *creader) usage() (cost.Usage, error) {
	var u cost.Usage
	var err error
	if u.CPUSeconds, err = r.f64(); err != nil {
		return u, err
	}
	if u.IOOps, err = r.varint(); err != nil {
		return u, err
	}
	if u.NetBytes, err = r.varint(); err != nil {
		return u, err
	}
	boots, err := r.varint()
	if err != nil {
		return u, err
	}
	u.Boots = int(boots)
	return u, nil
}

func appendDurationStats(b []byte, st metrics.DurationStatsState) []byte {
	b = binary.AppendVarint(b, st.Running.N)
	b = appendF64(b, st.Running.Mean)
	b = appendF64(b, st.Running.M2)
	b = appendF64(b, st.Running.Min)
	b = appendF64(b, st.Running.Max)
	b = appendF64(b, st.Running.Sum)
	b = appendBool(b, st.Running.HasSamples)
	b = binary.AppendUvarint(b, uint64(st.Reservoir.Cap))
	b = binary.AppendVarint(b, st.Reservoir.Seen)
	b = binary.AppendUvarint(b, uint64(len(st.Reservoir.Data)))
	for _, v := range st.Reservoir.Data {
		b = appendF64(b, v)
	}
	b = appendU64(b, st.Reservoir.PRNG)
	return b
}

func (r *creader) durationStats() (metrics.DurationStatsState, error) {
	var st metrics.DurationStatsState
	var err error
	if st.Running.N, err = r.varint(); err != nil {
		return st, err
	}
	if st.Running.N < 0 {
		return st, fmt.Errorf("persist: negative sample count %d", st.Running.N)
	}
	if st.Running.Mean, err = r.f64(); err != nil {
		return st, err
	}
	if st.Running.M2, err = r.f64(); err != nil {
		return st, err
	}
	if st.Running.Min, err = r.f64(); err != nil {
		return st, err
	}
	if st.Running.Max, err = r.f64(); err != nil {
		return st, err
	}
	if st.Running.Sum, err = r.f64(); err != nil {
		return st, err
	}
	if st.Running.HasSamples, err = r.bool(); err != nil {
		return st, err
	}
	cap64, err := r.uvarint()
	if err != nil {
		return st, err
	}
	if cap64 > math.MaxInt32 {
		return st, fmt.Errorf("persist: reservoir cap %d out of range", cap64)
	}
	st.Reservoir.Cap = int(cap64)
	if st.Reservoir.Seen, err = r.varint(); err != nil {
		return st, err
	}
	n, err := r.count(8)
	if err != nil {
		return st, err
	}
	if n > 0 {
		st.Reservoir.Data = make([]float64, 0, n)
	}
	for i := 0; i < n; i++ {
		v, err := r.f64()
		if err != nil {
			return st, err
		}
		st.Reservoir.Data = append(st.Reservoir.Data, v)
	}
	if st.Reservoir.PRNG, err = r.u64(); err != nil {
		return st, err
	}
	// A reservoir that claims fewer observations than it retains (or a
	// negative count) is corrupt, and the replacement draw after restore
	// would divide by Seen: reject rather than restore a time bomb.
	if st.Reservoir.Seen < int64(len(st.Reservoir.Data)) {
		return st, fmt.Errorf("persist: reservoir claims %d observations but retains %d",
			st.Reservoir.Seen, len(st.Reservoir.Data))
	}
	return st, nil
}

func appendCacheState(b []byte, st cache.State) []byte {
	b = binary.AppendVarint(b, int64(st.Clock))
	b = binary.AppendVarint(b, st.Capacity)
	b = binary.AppendUvarint(b, uint64(len(st.Entries)))
	for _, e := range st.Entries {
		b = appendString(b, string(e.ID))
		b = binary.AppendVarint(b, int64(e.BuiltAt))
		b = binary.AppendVarint(b, int64(e.FirstUsed))
		b = binary.AppendVarint(b, int64(e.LastUsed))
		b = binary.AppendVarint(b, e.Uses)
		b = binary.AppendVarint(b, int64(e.BuildPrice))
		b = binary.AppendVarint(b, int64(e.AmortRemaining))
		b = binary.AppendVarint(b, int64(e.MaintPaidUntil))
		b = binary.AppendVarint(b, int64(e.UnpaidMaint))
		b = binary.AppendVarint(b, int64(e.EarnedValue))
	}
	b = binary.AppendUvarint(b, uint64(len(st.Pending)))
	for _, p := range st.Pending {
		b = appendString(b, string(p.ID))
		b = binary.AppendVarint(b, int64(p.ReadyAt))
		b = binary.AppendVarint(b, int64(p.BuildPrice))
		b = binary.AppendVarint(b, int64(p.AmortRemaining))
	}
	return b
}

func (r *creader) cacheState() (cache.State, error) {
	var st cache.State
	var err error
	if st.Clock, err = r.duration(); err != nil {
		return st, err
	}
	if st.Capacity, err = r.varint(); err != nil {
		return st, err
	}
	n, err := r.count(10)
	if err != nil {
		return st, err
	}
	for i := 0; i < n; i++ {
		var e cache.EntryState
		var id string
		if id, err = r.str(); err != nil {
			return st, err
		}
		e.ID = structure.ID(id)
		if e.BuiltAt, err = r.duration(); err != nil {
			return st, err
		}
		if e.FirstUsed, err = r.duration(); err != nil {
			return st, err
		}
		if e.LastUsed, err = r.duration(); err != nil {
			return st, err
		}
		if e.Uses, err = r.varint(); err != nil {
			return st, err
		}
		if e.BuildPrice, err = r.amount(); err != nil {
			return st, err
		}
		if e.AmortRemaining, err = r.amount(); err != nil {
			return st, err
		}
		if e.MaintPaidUntil, err = r.duration(); err != nil {
			return st, err
		}
		if e.UnpaidMaint, err = r.amount(); err != nil {
			return st, err
		}
		if e.EarnedValue, err = r.amount(); err != nil {
			return st, err
		}
		st.Entries = append(st.Entries, e)
	}
	n, err = r.count(4)
	if err != nil {
		return st, err
	}
	for i := 0; i < n; i++ {
		var p cache.PendingState
		var id string
		if id, err = r.str(); err != nil {
			return st, err
		}
		p.ID = structure.ID(id)
		if p.ReadyAt, err = r.duration(); err != nil {
			return st, err
		}
		if p.BuildPrice, err = r.amount(); err != nil {
			return st, err
		}
		if p.AmortRemaining, err = r.amount(); err != nil {
			return st, err
		}
		st.Pending = append(st.Pending, p)
	}
	return st, nil
}

func appendLedger(b []byte, st economy.LedgerState) []byte {
	b = appendString(b, st.Tenant)
	b = binary.AppendVarint(b, int64(st.Credit))
	b = binary.AppendVarint(b, st.Clock)
	b = binary.AppendUvarint(b, uint64(len(st.Entries)))
	for _, e := range st.Entries {
		b = appendString(b, string(e.ID))
		b = binary.AppendVarint(b, int64(e.Regret))
		b = binary.AppendVarint(b, e.Touched)
	}
	b = binary.AppendVarint(b, int64(st.Spend))
	b = binary.AppendVarint(b, int64(st.ProfitTotal))
	b = binary.AppendVarint(b, int64(st.Invested))
	b = binary.AppendVarint(b, int64(st.Recovered))
	b = binary.AppendVarint(b, int64(st.RegretAccrued))
	b = binary.AppendVarint(b, int64(st.RegretDropped))
	b = binary.AppendVarint(b, st.InvestCount)
	b = binary.AppendVarint(b, st.DeclinedCount)
	b = binary.AppendVarint(b, st.Queries)
	b = binary.AppendVarint(b, st.CacheAnswered)
	return b
}

func (r *creader) ledger() (economy.LedgerState, error) {
	var st economy.LedgerState
	var err error
	if st.Tenant, err = r.str(); err != nil {
		return st, err
	}
	if st.Credit, err = r.amount(); err != nil {
		return st, err
	}
	if st.Clock, err = r.varint(); err != nil {
		return st, err
	}
	n, err := r.count(3)
	if err != nil {
		return st, err
	}
	for i := 0; i < n; i++ {
		var e economy.RegretEntryState
		var id string
		if id, err = r.str(); err != nil {
			return st, err
		}
		e.ID = structure.ID(id)
		if e.Regret, err = r.amount(); err != nil {
			return st, err
		}
		if e.Touched, err = r.varint(); err != nil {
			return st, err
		}
		st.Entries = append(st.Entries, e)
	}
	if st.Spend, err = r.amount(); err != nil {
		return st, err
	}
	if st.ProfitTotal, err = r.amount(); err != nil {
		return st, err
	}
	if st.Invested, err = r.amount(); err != nil {
		return st, err
	}
	if st.Recovered, err = r.amount(); err != nil {
		return st, err
	}
	if st.RegretAccrued, err = r.amount(); err != nil {
		return st, err
	}
	if st.RegretDropped, err = r.amount(); err != nil {
		return st, err
	}
	if st.InvestCount, err = r.varint(); err != nil {
		return st, err
	}
	if st.DeclinedCount, err = r.varint(); err != nil {
		return st, err
	}
	if st.Queries, err = r.varint(); err != nil {
		return st, err
	}
	if st.CacheAnswered, err = r.varint(); err != nil {
		return st, err
	}
	return st, nil
}

func appendEconomyState(b []byte, st *economy.State) []byte {
	b = append(b, byte(st.Provider))
	b = appendBool(b, st.Pool != nil)
	if st.Pool != nil {
		b = appendLedger(b, *st.Pool)
	}
	b = binary.AppendUvarint(b, uint64(len(st.Tenants)))
	for _, l := range st.Tenants {
		b = appendLedger(b, l)
	}
	b = binary.AppendUvarint(b, uint64(len(st.Market.Owners)))
	for _, o := range st.Market.Owners {
		b = appendString(b, string(o.ID))
		b = appendString(b, o.Tenant)
	}
	b = binary.AppendUvarint(b, uint64(len(st.Market.FailCounts)))
	for _, f := range st.Market.FailCounts {
		b = appendString(b, string(f.ID))
		b = binary.AppendVarint(b, f.Count)
	}
	b = appendUsage(b, st.Market.BuildUsage)
	b = binary.AppendVarint(b, st.Market.FailureCount)
	return b
}

func (r *creader) economyState() (*economy.State, error) {
	st := &economy.State{}
	prov, err := r.byte()
	if err != nil {
		return nil, err
	}
	st.Provider = economy.Provider(prov)
	hasPool, err := r.bool()
	if err != nil {
		return nil, err
	}
	if hasPool {
		pool, err := r.ledger()
		if err != nil {
			return nil, err
		}
		st.Pool = &pool
	}
	n, err := r.count(2)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		l, err := r.ledger()
		if err != nil {
			return nil, err
		}
		st.Tenants = append(st.Tenants, l)
	}
	n, err = r.count(2)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		var o economy.OwnerState
		var id string
		if id, err = r.str(); err != nil {
			return nil, err
		}
		o.ID = structure.ID(id)
		if o.Tenant, err = r.str(); err != nil {
			return nil, err
		}
		st.Market.Owners = append(st.Market.Owners, o)
	}
	n, err = r.count(2)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		var f economy.FailCountState
		var id string
		if id, err = r.str(); err != nil {
			return nil, err
		}
		f.ID = structure.ID(id)
		if f.Count, err = r.varint(); err != nil {
			return nil, err
		}
		st.Market.FailCounts = append(st.Market.FailCounts, f)
	}
	if st.Market.BuildUsage, err = r.usage(); err != nil {
		return nil, err
	}
	if st.Market.FailureCount, err = r.varint(); err != nil {
		return nil, err
	}
	return st, nil
}

// --- record payloads ------------------------------------------------------

func appendMeta(b []byte, s *Snapshot) []byte {
	b = append(b, recMeta)
	b = appendString(b, s.Scheme)
	b = appendString(b, s.Provider)
	b = binary.AppendVarint(b, s.CatalogBytes)
	b = binary.AppendVarint(b, s.NextID)
	b = binary.AppendVarint(b, int64(s.Clock))
	b = binary.AppendVarint(b, s.CreatedUnixNano)
	b = binary.AppendUvarint(b, uint64(len(s.Shards)))
	return b
}

func decodeMeta(payload []byte) (*Snapshot, int, error) {
	r := &creader{b: payload}
	typ, err := r.byte()
	if err != nil {
		return nil, 0, err
	}
	if typ != recMeta {
		return nil, 0, fmt.Errorf("persist: expected meta record, got type %d", typ)
	}
	s := &Snapshot{}
	if s.Scheme, err = r.str(); err != nil {
		return nil, 0, err
	}
	if s.Provider, err = r.str(); err != nil {
		return nil, 0, err
	}
	if s.CatalogBytes, err = r.varint(); err != nil {
		return nil, 0, err
	}
	if s.NextID, err = r.varint(); err != nil {
		return nil, 0, err
	}
	if s.Clock, err = r.duration(); err != nil {
		return nil, 0, err
	}
	if s.CreatedUnixNano, err = r.varint(); err != nil {
		return nil, 0, err
	}
	shards, err := r.uvarint()
	if err != nil {
		return nil, 0, err
	}
	if shards == 0 || shards > MaxShards {
		return nil, 0, fmt.Errorf("persist: shard count %d outside [1, %d]", shards, MaxShards)
	}
	if r.len() != 0 {
		return nil, 0, fmt.Errorf("persist: %d trailing bytes after meta record", r.len())
	}
	return s, int(shards), nil
}

func appendShard(b []byte, st *ShardState) []byte {
	b = append(b, recShard)
	b = binary.AppendUvarint(b, uint64(st.Index))
	b = binary.AppendVarint(b, int64(st.LastNow))
	b = binary.AppendVarint(b, int64(st.LastAccrual))
	b = binary.AppendVarint(b, int64(st.EndOfRun))
	b = appendF64(b, st.StorageGBSeconds)
	b = appendF64(b, st.NodeSeconds)
	b = binary.AppendVarint(b, st.Queries)
	b = binary.AppendVarint(b, st.Declined)
	b = binary.AppendVarint(b, st.CacheAnswered)
	b = binary.AppendVarint(b, st.Investments)
	b = binary.AppendVarint(b, st.Failures)
	b = binary.AppendVarint(b, st.Errors)
	b = binary.AppendVarint(b, int64(st.Revenue))
	b = binary.AppendVarint(b, int64(st.Profit))
	b = appendUsage(b, st.ExecUsage)
	b = appendUsage(b, st.BuildUsage)
	b = appendU64(b, st.RNG)
	b = appendDurationStats(b, st.Response)
	b = appendCacheState(b, st.Cache)
	b = appendBool(b, st.Economy != nil)
	if st.Economy != nil {
		b = appendEconomyState(b, st.Economy)
	}
	b = binary.AppendUvarint(b, uint64(len(st.Yield)))
	for _, y := range st.Yield {
		b = appendString(b, string(y.ID))
		b = binary.AppendVarint(b, y.Bytes)
	}
	return b
}

func decodeShard(payload []byte) (ShardState, error) {
	var st ShardState
	r := &creader{b: payload}
	typ, err := r.byte()
	if err != nil {
		return st, err
	}
	if typ != recShard {
		return st, fmt.Errorf("persist: expected shard record, got type %d", typ)
	}
	idx, err := r.uvarint()
	if err != nil {
		return st, err
	}
	if idx > MaxShards {
		return st, fmt.Errorf("persist: shard index %d out of range", idx)
	}
	st.Index = int(idx)
	if st.LastNow, err = r.duration(); err != nil {
		return st, err
	}
	if st.LastAccrual, err = r.duration(); err != nil {
		return st, err
	}
	if st.EndOfRun, err = r.duration(); err != nil {
		return st, err
	}
	if st.StorageGBSeconds, err = r.f64(); err != nil {
		return st, err
	}
	if st.NodeSeconds, err = r.f64(); err != nil {
		return st, err
	}
	if st.Queries, err = r.varint(); err != nil {
		return st, err
	}
	if st.Declined, err = r.varint(); err != nil {
		return st, err
	}
	if st.CacheAnswered, err = r.varint(); err != nil {
		return st, err
	}
	if st.Investments, err = r.varint(); err != nil {
		return st, err
	}
	if st.Failures, err = r.varint(); err != nil {
		return st, err
	}
	if st.Errors, err = r.varint(); err != nil {
		return st, err
	}
	if st.Revenue, err = r.amount(); err != nil {
		return st, err
	}
	if st.Profit, err = r.amount(); err != nil {
		return st, err
	}
	if st.ExecUsage, err = r.usage(); err != nil {
		return st, err
	}
	if st.BuildUsage, err = r.usage(); err != nil {
		return st, err
	}
	if st.RNG, err = r.u64(); err != nil {
		return st, err
	}
	if st.Response, err = r.durationStats(); err != nil {
		return st, err
	}
	if st.Cache, err = r.cacheState(); err != nil {
		return st, err
	}
	hasEco, err := r.bool()
	if err != nil {
		return st, err
	}
	if hasEco {
		if st.Economy, err = r.economyState(); err != nil {
			return st, err
		}
	}
	n, err := r.count(2)
	if err != nil {
		return st, err
	}
	for i := 0; i < n; i++ {
		var y YieldState
		var id string
		if id, err = r.str(); err != nil {
			return st, err
		}
		y.ID = structure.ID(id)
		if y.Bytes, err = r.varint(); err != nil {
			return st, err
		}
		st.Yield = append(st.Yield, y)
	}
	if r.len() != 0 {
		return st, fmt.Errorf("persist: %d trailing bytes after shard record", r.len())
	}
	return st, nil
}

// --- framing and file I/O -------------------------------------------------

// appendFrame wraps one payload with its length prefix and CRC.
func appendFrame(b, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// nextFrame splits one CRC-checked frame off data.
func nextFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("persist: truncated frame header")
	}
	n := binary.LittleEndian.Uint32(data)
	data = data[4:]
	if uint64(n)+4 > uint64(len(data)) {
		return nil, nil, fmt.Errorf("persist: frame of %d bytes overruns file", n)
	}
	payload, data = data[:n], data[n:]
	want := binary.LittleEndian.Uint32(data)
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, nil, fmt.Errorf("persist: frame CRC mismatch: %08x != %08x", got, want)
	}
	return payload, data[4:], nil
}

// EncodeBytes serializes a snapshot.
func EncodeBytes(s *Snapshot) []byte {
	b := append([]byte{}, magic[:]...)
	b = binary.LittleEndian.AppendUint16(b, Version)
	b = appendFrame(b, appendMeta(nil, s))
	for i := range s.Shards {
		b = appendFrame(b, appendShard(nil, &s.Shards[i]))
	}
	return b
}

// Encode writes a snapshot to w.
func Encode(w io.Writer, s *Snapshot) error {
	_, err := w.Write(EncodeBytes(s))
	return err
}

// Decode parses a snapshot. Truncated, corrupt or version-mismatched
// input fails with an error — never a panic, never partial state.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(magic)+2 {
		return nil, fmt.Errorf("persist: file too short for header")
	}
	if string(data[:len(magic)]) != string(magic[:]) {
		return nil, fmt.Errorf("persist: bad magic")
	}
	v := binary.LittleEndian.Uint16(data[len(magic):])
	if v != Version {
		return nil, fmt.Errorf("persist: unsupported snapshot version %d (want %d)", v, Version)
	}
	rest := data[len(magic)+2:]

	payload, rest, err := nextFrame(rest)
	if err != nil {
		return nil, err
	}
	s, shards, err := decodeMeta(payload)
	if err != nil {
		return nil, err
	}
	for i := 0; i < shards; i++ {
		if payload, rest, err = nextFrame(rest); err != nil {
			return nil, fmt.Errorf("persist: shard %d: %w", i, err)
		}
		st, err := decodeShard(payload)
		if err != nil {
			return nil, fmt.Errorf("persist: shard %d: %w", i, err)
		}
		if st.Index != i {
			return nil, fmt.Errorf("persist: shard record %d carries index %d", i, st.Index)
		}
		s.Shards = append(s.Shards, st)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("persist: %d trailing bytes after last shard", len(rest))
	}
	return s, nil
}

// --- single-shard packets -------------------------------------------------

func appendShardMeta(b []byte, p *ShardPacket) []byte {
	b = append(b, recShardMeta)
	b = appendString(b, p.Scheme)
	b = appendString(b, p.Provider)
	b = binary.AppendVarint(b, p.CatalogBytes)
	b = binary.AppendVarint(b, p.NextID)
	b = binary.AppendVarint(b, int64(p.Clock))
	b = binary.AppendVarint(b, p.CreatedUnixNano)
	return b
}

func decodeShardMeta(payload []byte) (*ShardPacket, error) {
	r := &creader{b: payload}
	typ, err := r.byte()
	if err != nil {
		return nil, err
	}
	if typ != recShardMeta {
		return nil, fmt.Errorf("persist: expected shard-meta record, got type %d", typ)
	}
	p := &ShardPacket{}
	if p.Scheme, err = r.str(); err != nil {
		return nil, err
	}
	if p.Provider, err = r.str(); err != nil {
		return nil, err
	}
	if p.CatalogBytes, err = r.varint(); err != nil {
		return nil, err
	}
	if p.NextID, err = r.varint(); err != nil {
		return nil, err
	}
	if p.Clock, err = r.duration(); err != nil {
		return nil, err
	}
	if p.CreatedUnixNano, err = r.varint(); err != nil {
		return nil, err
	}
	if r.len() != 0 {
		return nil, fmt.Errorf("persist: %d trailing bytes after shard-meta record", r.len())
	}
	return p, nil
}

// EncodeShardPacket serializes one shard for transfer:
//
//	packet := shardMagic "CCSHRD" | u16 version (LE)
//	        | frame(shard-meta) | frame(shard)
//
// with the same length-prefixed CRC framing as snapshot files, so a
// packet truncated or corrupted in flight fails installation cleanly on
// the receiving backend instead of loading partial state.
func EncodeShardPacket(p *ShardPacket) []byte {
	b := append([]byte{}, shardMagic[:]...)
	b = binary.LittleEndian.AppendUint16(b, Version)
	b = appendFrame(b, appendShardMeta(nil, p))
	b = appendFrame(b, appendShard(nil, &p.State))
	return b
}

// DecodeShardPacket parses a single-shard packet with the same
// guarantees as Decode: never panics, never allocates past a small
// multiple of the input, and fails loudly on truncation, corruption or
// a version mismatch.
func DecodeShardPacket(data []byte) (*ShardPacket, error) {
	if len(data) < len(shardMagic)+2 {
		return nil, fmt.Errorf("persist: packet too short for header")
	}
	if string(data[:len(shardMagic)]) != string(shardMagic[:]) {
		return nil, fmt.Errorf("persist: bad shard packet magic")
	}
	v := binary.LittleEndian.Uint16(data[len(shardMagic):])
	if v != Version {
		return nil, fmt.Errorf("persist: unsupported shard packet version %d (want %d)", v, Version)
	}
	rest := data[len(shardMagic)+2:]

	payload, rest, err := nextFrame(rest)
	if err != nil {
		return nil, err
	}
	p, err := decodeShardMeta(payload)
	if err != nil {
		return nil, err
	}
	if payload, rest, err = nextFrame(rest); err != nil {
		return nil, err
	}
	if p.State, err = decodeShard(payload); err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("persist: %d trailing bytes after shard record", len(rest))
	}
	return p, nil
}

// Write atomically persists a snapshot: encode to a temp file in the
// destination directory, fsync, rename. A crash mid-write leaves any
// previous snapshot untouched. Returns the encoded size.
func Write(path string, s *Snapshot) (int64, error) {
	data := EncodeBytes(s)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// Load reads and decodes a snapshot file.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
