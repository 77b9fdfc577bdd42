package pipeline

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"parsample/internal/diskstore"
	"parsample/internal/faultinject"
)

// Source reports how a Store.Do call obtained its artifact.
type Source int

const (
	// Computed: this call ran the compute function (cache miss).
	Computed Source = iota
	// Hit: the artifact was resident in the store.
	Hit
	// Shared: another in-flight computation of the same key was joined.
	Shared
	// Disk: the artifact was loaded and integrity-verified from the
	// persistent disk tier instead of recomputed.
	Disk
)

// String returns the lowercase name used in traces and stats.
func (s Source) String() string {
	switch s {
	case Computed:
		return "computed"
	case Hit:
		return "hit"
	case Shared:
		return "shared"
	case Disk:
		return "disk"
	}
	return "unknown"
}

// StoreStats is a snapshot of the store's counters. The JSON names are the
// wire form served by /statsz.
type StoreStats struct {
	// Hits counts requests served from a resident entry.
	Hits int64 `json:"hits"`
	// Misses counts requests that ran the compute function — a kernel
	// actually executed. A disk-tier load is not a miss.
	Misses int64 `json:"misses"`
	// Shared counts requests that joined another caller's in-flight
	// computation instead of computing a second time.
	Shared int64 `json:"shared"`
	// Evictions counts entries dropped by the LRU byte budget.
	Evictions int64 `json:"evictions"`
	// Oversized counts artifacts larger than the whole byte budget: served
	// (and spilled to the disk tier) but never retained in memory.
	Oversized int64 `json:"oversized"`
	// Entries is the current resident entry count.
	Entries int `json:"entries"`
	// BytesUsed is the current resident byte estimate.
	BytesUsed int64 `json:"bytes_used"`
	// BytesBudget is the configured byte budget.
	BytesBudget int64 `json:"bytes_budget"`
	// Inflight is the number of computations currently running.
	Inflight int `json:"inflight"`
	// SweepBatches and SweepRequests both count the correlation sweeps the
	// engine's network stage computed, so they are always equal; the pair
	// stays for readers of the two JSON fields. Populated by Engine.Stats,
	// not the Store.
	SweepBatches  int64 `json:"sweep_batches"`
	SweepRequests int64 `json:"sweep_requests"`
	// DiskHits counts artifacts loaded and integrity-verified from the
	// disk tier; DiskMisses counts disk probes that found no usable
	// snapshot (absent, truncated, corrupt or version-skewed — all
	// ordinary misses). Zero when no disk tier is configured.
	DiskHits   int64 `json:"disk_hits"`
	DiskMisses int64 `json:"disk_misses"`
	// WriteBehindPending is the current depth of the disk tier's
	// write-behind queue; WriteBehindErrors counts failed or shed
	// write-behind snapshots (a full queue sheds rather than blocking the
	// serving path).
	WriteBehindPending int   `json:"write_behind_pending"`
	WriteBehindErrors  int64 `json:"write_behind_errors"`
	// DiskWrites counts snapshots published to the cache directory;
	// DiskPrunes counts blobs deleted by the byte-budget pruner;
	// DiskIntegrityDrops counts corrupt blobs deleted after a failed load.
	DiskWrites         int64 `json:"disk_writes"`
	DiskPrunes         int64 `json:"disk_prunes"`
	DiskIntegrityDrops int64 `json:"disk_integrity_drops"`
	// DiskBytesUsed/DiskBytesBudget mirror the cache directory usage and
	// its pruning budget.
	DiskBytesUsed   int64 `json:"disk_bytes_used"`
	DiskBytesBudget int64 `json:"disk_bytes_budget"`
}

// Store is the keyed artifact store behind the Engine, and the only memo on
// parsample.Pipeline's request path (network sources are materialized
// inside the stages that miss, never stored): a memoization map with
// singleflight deduplication (concurrent requests for one key compute
// once), LRU eviction under a byte budget, hit/miss/inflight counters, and
// an optional persistent second tier (AttachDisk). Lookup order is memory →
// disk → compute: a disk load is checksum-verified and promoted into the
// memory LRU; a computed artifact is written behind to disk.
//
// Failure discipline: only successful computations are inserted. A compute
// that returns an error — in particular a context cancellation — leaves no
// entry behind (no "poisoned" artifacts), and waiters that joined a
// cancelled computation retry with their own context instead of inheriting
// the owner's cancellation. The disk tier inherits the discipline: a blob
// that fails its checksum or decode is deleted and recomputed, never
// served.
type Store struct {
	mu        sync.Mutex
	maxBytes  int64
	used      int64
	entries   map[Key]*list.Element
	lru       *list.List // front = most recently used *entry
	inflight  map[Key]*flight
	hits      int64
	misses    int64
	shared    int64
	evictions int64
	oversized int64

	disk       *diskstore.Store // nil: memory-only
	diskHits   atomic.Int64
	diskMisses atomic.Int64
}

type entry struct {
	key   Key
	val   any
	bytes int64
	// persisted flips true once a snapshot of this artifact is published on
	// disk; eviction re-enqueues a write only while it is false. Written by
	// the write-behind goroutine, read under the store mutex — hence
	// atomic.
	persisted *atomic.Bool
}

type flight struct {
	done chan struct{} // closed once val/err are set
	val  any
	err  error
}

// NewStore creates a store evicting least-recently-used artifacts once the
// resident estimate exceeds maxBytes (≤ 0 selects DefaultStoreBytes).
func NewStore(maxBytes int64) *Store {
	if maxBytes <= 0 {
		maxBytes = DefaultStoreBytes
	}
	return &Store{
		maxBytes: maxBytes,
		entries:  make(map[Key]*list.Element),
		lru:      list.New(),
		inflight: make(map[Key]*flight),
	}
}

// AttachDisk wires a persistent tier beneath the memory LRU. Call before
// serving (not concurrency-safe with Do).
func (s *Store) AttachDisk(d *diskstore.Store) { s.disk = d }

// Close flushes and stops the disk tier's write-behind goroutine, if any.
func (s *Store) Close() {
	if s.disk != nil {
		s.disk.Close()
	}
}

// DefaultStoreBytes is the artifact budget used when a configuration leaves
// it unset: enough for every artifact of the paper's four-network evaluation
// with room to spare, small enough to bound a long-running server.
const DefaultStoreBytes int64 = 256 << 20

// Stats returns a snapshot of the counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	st := StoreStats{
		Hits:        s.hits,
		Misses:      s.misses,
		Shared:      s.shared,
		Evictions:   s.evictions,
		Oversized:   s.oversized,
		Entries:     s.lru.Len(),
		BytesUsed:   s.used,
		BytesBudget: s.maxBytes,
		Inflight:    len(s.inflight),
	}
	s.mu.Unlock()
	st.DiskHits = s.diskHits.Load()
	st.DiskMisses = s.diskMisses.Load()
	if s.disk != nil {
		ds := s.disk.Stats()
		st.WriteBehindPending = ds.Pending
		st.WriteBehindErrors = ds.WriteErrors + ds.Dropped
		st.DiskWrites = ds.Writes
		st.DiskPrunes = ds.Prunes
		st.DiskIntegrityDrops = ds.IntegrityDrops
		st.DiskBytesUsed = ds.BytesUsed
		st.DiskBytesBudget = ds.MaxBytes
	}
	return st
}

// Do returns the artifact for key, computing it at most once across
// concurrent callers. compute returns the value plus its resident byte
// estimate; it runs without store locks held. The returned Source reports
// whether this call hit the memory tier, loaded from the disk tier, joined
// an in-flight computation, or computed.
func (s *Store) Do(ctx context.Context, key Key, compute func(context.Context) (any, int64, error)) (any, Source, error) {
	// Failpoint: every store request (DESIGN.md §8 failpoint catalog).
	if err := faultinject.Eval("pipeline.store.get"); err != nil {
		return nil, Computed, err
	}
	for {
		s.mu.Lock()
		if el, ok := s.entries[key]; ok {
			s.lru.MoveToFront(el)
			s.hits++
			v := el.Value.(*entry).val
			s.mu.Unlock()
			return v, Hit, nil
		}
		if f, ok := s.inflight[key]; ok {
			s.shared++
			s.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, Shared, ctx.Err()
			}
			if f.err == nil {
				return f.val, Shared, nil
			}
			// The owner failed. Its cancellation is not ours: if this
			// caller's context is still live, loop and recompute; any other
			// error is the artifact's own and is shared with every waiter.
			if !errors.Is(f.err, context.Canceled) && !errors.Is(f.err, context.DeadlineExceeded) {
				return nil, Shared, f.err
			}
			if err := ctx.Err(); err != nil {
				return nil, Shared, err
			}
			continue
		}
		// This call owns the flight. The flight is registered before the
		// disk probe, so concurrent callers join a disk load exactly like a
		// compute instead of hammering the file in parallel.
		f := &flight{done: make(chan struct{})}
		s.inflight[key] = f
		s.mu.Unlock()

		src := Disk
		val, bytes, loaded := s.diskLoad(key)
		var err error
		if !loaded {
			src = Computed
			s.mu.Lock()
			s.misses++
			s.mu.Unlock()
			val, bytes, err = runCompute(ctx, compute)
			if err == nil {
				// Failpoint: a put that fails after a successful compute. The
				// failure discipline holds — nothing is inserted, every waiter
				// of this flight receives the error, and the next attempt
				// recomputes from scratch.
				if ferr := faultinject.Eval("pipeline.store.put"); ferr != nil {
					val, err = nil, ferr
				}
			}
		}
		f.val, f.err = val, err
		s.mu.Lock()
		delete(s.inflight, key)
		if err == nil {
			s.insert(key, val, bytes, src == Disk)
		}
		s.mu.Unlock()
		close(f.done)
		if err != nil {
			return nil, src, err
		}
		return val, src, nil
	}
}

// diskLoad probes the persistent tier: read (or mmap) the blob, verify its
// checksum, decode. Every failure mode — no disk tier, absent blob,
// truncation, corruption, version skew, a decoder panic — returns nil, and
// a corrupt blob is deleted so the whole fleet sees an ordinary miss where
// a poisoned entry sat. The stage's row decodes the blob and sizes the
// artifact exactly as a compute would have.
func (s *Store) diskLoad(key Key) (any, int64, bool) {
	if s.disk == nil || int(key.Stage) >= len(stages) {
		return nil, 0, false
	}
	name := diskName(key)
	data, ok := s.disk.Get(name)
	if !ok {
		s.diskMisses.Add(1)
		return nil, 0, false
	}
	val, bytes, err := decodeBlob(key.Stage, data)
	if err != nil {
		s.disk.Drop(name)
		s.diskMisses.Add(1)
		return nil, 0, false
	}
	s.diskHits.Add(1)
	return val, bytes, true
}

// decodeBlob runs the stage's snapshot decoder under Contain. A blob
// whose checksum holds but whose contents crash the decoder is as corrupt
// as one that fails to parse ("pipeline: <stage> snapshot decode
// panicked"); diskLoad runs outside runCompute's containment, and an
// unrecovered panic there would leave the key's flight open for every
// later caller.
func decodeBlob(st Stage, data []byte) (val any, bytes int64, err error) {
	err = Contain("pipeline: "+st.String()+" snapshot decode", func() error {
		var err error
		val, bytes, err = stages[st].decode(data)
		return err
	})
	return val, bytes, err
}

// runCompute invokes compute under Contain: a panicking kernel is
// converted into an error instead of killing the process, so one poisoned
// request cannot take a shared daemon down. The store's failure discipline
// then applies as for any compute error — nothing is inserted, waiters get
// the error, the next attempt recomputes.
func runCompute(ctx context.Context, compute func(context.Context) (any, int64, error)) (val any, bytes int64, err error) {
	err = Contain("pipeline: artifact compute", func() error {
		var err error
		val, bytes, err = compute(ctx)
		return err
	})
	return val, bytes, err
}

// Contain runs f and converts a panic inside it into an error, so one
// poisoned request fails alone instead of killing a shared process. The
// error says only what panicked ("<what> panicked: <value>"), because it
// travels to clients in 500 bodies and job records; the goroutine stack
// goes to the process log.
func Contain(what string, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("%s panicked: %v\n%s", what, r, debug.Stack())
			err = fmt.Errorf("%s panicked: %v", what, r)
		}
	}()
	return f()
}

// insert adds a resident entry, schedules write-behind for unpersisted
// artifacts, and evicts from the LRU tail until the byte estimate fits the
// budget. The just-inserted entry is never evicted.
//
// Oversized policy: an artifact whose estimate exceeds the WHOLE budget is
// served to its caller but never retained — holding it would evict the
// entire working set for one request. It still spills to the disk tier, so
// a repeat costs a disk read rather than a recompute. Caller holds mu.
func (s *Store) insert(key Key, val any, bytes int64, persisted bool) {
	if bytes < 0 {
		bytes = 0
	}
	if bytes > s.maxBytes {
		s.oversized++
		if el, ok := s.entries[key]; ok {
			// A resident (smaller) value being replaced by an oversized one:
			// drop it rather than keep serving the stale entry.
			e := el.Value.(*entry)
			s.lru.Remove(el)
			delete(s.entries, e.key)
			s.used -= e.bytes
		}
		if !persisted {
			s.enqueueWrite(key, val, nil)
		}
		return
	}
	var pflag *atomic.Bool
	if el, ok := s.entries[key]; ok {
		// Possible when a key was evicted and recomputed by two waiters of a
		// cancelled owner; keep the newer value.
		e := el.Value.(*entry)
		s.used += bytes - e.bytes
		e.val, e.bytes = val, bytes
		s.lru.MoveToFront(el)
		pflag = e.persisted
	} else {
		pflag = &atomic.Bool{}
		s.entries[key] = s.lru.PushFront(&entry{key: key, val: val, bytes: bytes, persisted: pflag})
		s.used += bytes
	}
	if persisted {
		pflag.Store(true)
	} else if !pflag.Load() {
		s.enqueueWrite(key, val, pflag)
	}
	for s.used > s.maxBytes && s.lru.Len() > 1 {
		el := s.lru.Back()
		e := el.Value.(*entry)
		s.lru.Remove(el)
		delete(s.entries, e.key)
		s.used -= e.bytes
		s.evictions++
		if !e.persisted.Load() {
			// Write-behind on evict: last chance to persist an artifact whose
			// insert-time write was shed (full queue). The write is
			// idempotent — content-addressed name, identical bytes — so a
			// rare duplicate with a still-pending insert-time write is
			// harmless.
			s.enqueueWrite(e.key, e.val, e.persisted)
		}
	}
}

// enqueueWrite hands an artifact to the disk tier's bounded write-behind
// queue (never blocking; a full queue sheds the write). Encoding happens on
// the writer goroutine. Safe to call with mu held: PutAsync only takes the
// disk store's own mutex and a non-blocking channel send.
func (s *Store) enqueueWrite(key Key, val any, pflag *atomic.Bool) {
	if s.disk == nil {
		return
	}
	s.disk.PutAsync(diskName(key),
		func() ([]byte, error) { return stages[key.Stage].encode(val) },
		func(err error) {
			if err == nil && pflag != nil {
				pflag.Store(true)
			}
		})
}

// Len returns the resident entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Contains reports whether key is resident in memory (without touching LRU
// order).
func (s *Store) Contains(key Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// ContainsOnDisk reports whether key has a published snapshot in the disk
// tier (a stat, not a read: no access-stamp bump, no integrity check).
func (s *Store) ContainsOnDisk(key Key) bool {
	return s.disk != nil && s.disk.Contains(diskName(key))
}
