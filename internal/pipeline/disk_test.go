package pipeline

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"parsample/internal/diskstore"
	"parsample/internal/faultinject"
)

func newDiskEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	e, err := NewWithDisk(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// snapPath locates the published snapshot blob for a key inside dir,
// mirroring the diskstore sharding layout.
func snapPath(dir string, key Key) string {
	name := diskName(key)
	return filepath.Join(dir, name[:2], name+".snap")
}

// The warm-restart contract: everything engine A computes is served by a
// fresh engine B sharing its cache directory from disk snapshots alone —
// zero kernel executions — and the artifacts compare deep-equal, so the
// serialized API responses built from them are byte-identical.
func TestEngineWarmRestartFromDisk(t *testing.T) {
	ds := testDataset()
	dir := t.TempDir()
	ctx := context.Background()
	in := FromDataset(ds)

	a := newDiskEngine(t, dir)
	wantSC, err := a.Scored(ctx, in, testVariant)
	if err != nil {
		t.Fatal(err)
	}
	wantMS, err := a.Matches(ctx, in, testVariant)
	if err != nil {
		t.Fatal(err)
	}
	wantG, err := a.Graph(ctx, in, testVariant)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantSC) == 0 || len(wantMS) == 0 {
		t.Fatalf("test dataset produced trivial artifacts (%d scored, %d matches)", len(wantSC), len(wantMS))
	}
	a.Close() // drain write-behind: the "process exit" of replica A

	b := newDiskEngine(t, dir)
	gotMS, err := b.Matches(ctx, in, testVariant)
	if err != nil {
		t.Fatal(err)
	}
	gotSC, err := b.Scored(ctx, in, testVariant)
	if err != nil {
		t.Fatal(err)
	}
	gotG, err := b.Graph(ctx, in, testVariant)
	if err != nil {
		t.Fatal(err)
	}
	// Load the rest of what A holds (the dependencies a disk hit skipped),
	// so both stores carry the same artifacts.
	if _, err := b.Order(ctx, in, testVariant.Ordering); err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{Original, testVariant} {
		if _, err := b.Clusters(ctx, in, v); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Scored(ctx, in, v); err != nil {
			t.Fatal(err)
		}
	}
	st := b.Stats()
	if st.Misses != 0 {
		t.Fatalf("warm restart ran %d kernels, want 0; stats %+v", st.Misses, st)
	}
	if st.DiskHits == 0 {
		t.Fatalf("warm restart loaded nothing from disk; stats %+v", st)
	}
	// Disk loads are sized like computes.
	if sa := a.Stats(); st.Entries != sa.Entries || st.BytesUsed != sa.BytesUsed {
		t.Fatalf("restarted store holds %d entries / %d bytes, computing store %d / %d",
			st.Entries, st.BytesUsed, sa.Entries, sa.BytesUsed)
	}
	if !reflect.DeepEqual(wantMS, gotMS) {
		t.Fatal("match table differs across restart")
	}
	if !reflect.DeepEqual(wantSC, gotSC) {
		t.Fatal("scored clusters differ across restart")
	}
	wo, wn := wantG.CSR()
	go_, gn := gotG.CSR()
	if !reflect.DeepEqual(wo, go_) || !reflect.DeepEqual(wn, gn) {
		t.Fatal("filtered graph CSR differs across restart")
	}
	if !b.NetworkResident(in) && !b.store.ContainsOnDisk(in.key(StageFilter, testVariant)) {
		t.Fatal("disk-warm artifacts not visible to residency checks")
	}
}

// A corrupted snapshot is an ordinary miss: the engine recomputes, deletes
// the poisoned blob, republishes a good one, and the store is left clean —
// a third engine warm-loads the replacement.
func TestEngineCorruptSnapshotRecomputesUnpoisoned(t *testing.T) {
	ds := testDataset()
	dir := t.TempDir()
	ctx := context.Background()
	in := FromDataset(ds)
	key := in.key(StageCluster, testVariant)

	a := newDiskEngine(t, dir)
	want, err := a.Clusters(ctx, in, testVariant)
	if err != nil {
		t.Fatal(err)
	}
	a.Close()

	// Flip one byte in the published cluster snapshot.
	p := snapPath(dir, key)
	blob, err := os.ReadFile(p)
	if err != nil {
		t.Fatalf("cluster snapshot not published: %v", err)
	}
	blob[len(blob)/2] ^= 0x01
	if err := os.WriteFile(p, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	b := newDiskEngine(t, dir)
	got, err := b.Clusters(ctx, in, testVariant)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("recompute after corruption produced a different artifact")
	}
	st := b.Stats()
	if st.DiskIntegrityDrops != 1 {
		t.Fatalf("integrity drops = %d, want 1; stats %+v", st.DiskIntegrityDrops, st)
	}
	if st.Misses == 0 {
		t.Fatal("corrupt snapshot served without a recompute")
	}
	b.Close() // flush the republished snapshot

	c := newDiskEngine(t, dir)
	got2, err := c.Clusters(ctx, in, testVariant)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got2) {
		t.Fatal("republished snapshot decodes to a different artifact")
	}
	if st := c.Stats(); st.Misses != 0 || st.DiskHits == 0 {
		t.Fatalf("store poisoned: third engine ran %d kernels (disk hits %d)", st.Misses, st.DiskHits)
	}
}

// breakFilteredCSR rewrites a filtered snapshot so the subgraph's second
// CSR offset points past the neighbor arena, then re-seals the checksum:
// the blob passes every envelope check and reaches the graph decoder.
func breakFilteredCSR(blob []byte) {
	le := binary.LittleEndian
	at := 24 + 10*8 // header, then ten scalar words
	for range 2 {   // RankOps, RankSeconds
		at += 8 + 8*int(le.Uint64(blob[at:]))
	}
	m := le.Uint64(blob[at+8:])                 // after n
	le.PutUint32(blob[at+24+4:], uint32(2*m+1)) // off[1], after n, m and the offset count
	le.PutUint64(blob[len(blob)-8:], crc64.Checksum(blob[:len(blob)-8], crc64.MakeTable(crc64.ECMA)))
}

// A checksum-valid blob the decoder rejects, or one that panics the
// decoder, is a corrupt blob: dropped, counted as a miss and recomputed,
// with the key's flight closed so the next caller is served too.
func TestEngineUndecodableSnapshotRecomputes(t *testing.T) {
	ds := testDataset()
	ctx := context.Background()
	in := FromDataset(ds)
	key := in.key(StageFilter, testVariant)
	for _, tc := range []struct {
		name  string
		plant func(t *testing.T, path string)
	}{
		{"offset beyond arena", func(t *testing.T, path string) {
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("filter snapshot not published: %v", err)
			}
			breakFilteredCSR(blob)
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"decoder panic", func(t *testing.T, _ string) {
			orig := stages[StageFilter].decode
			stages[StageFilter].decode = func([]byte) (any, int64, error) { panic("decoder bug") }
			t.Cleanup(func() { stages[StageFilter].decode = orig })
			const want = "pipeline: filter snapshot decode panicked: decoder bug"
			if val, _, err := decodeBlob(StageFilter, nil); val != nil || err == nil || err.Error() != want {
				t.Fatalf("decodeBlob = (%v, %v), want (nil, %q)", val, err, want)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			a := newDiskEngine(t, dir)
			want, err := a.Filtered(ctx, in, testVariant)
			if err != nil {
				t.Fatal(err)
			}
			a.Close()
			tc.plant(t, snapPath(dir, key))

			b := newDiskEngine(t, dir)
			for i := 0; i < 2; i++ {
				got, err := b.Filtered(ctx, in, testVariant)
				if err != nil {
					t.Fatal(err)
				}
				wo, wn := want.Subgraph.CSR()
				gotOff, gotNbr := got.Subgraph.CSR()
				if !reflect.DeepEqual(wo, gotOff) || !reflect.DeepEqual(wn, gotNbr) || !reflect.DeepEqual(want.Stats, got.Stats) {
					t.Fatal("recomputed filter result differs")
				}
			}
			st := b.Stats()
			// The order the filter depends on still loads from disk.
			if st.Misses != 1 || st.Hits != 1 || st.DiskHits != 1 || st.DiskIntegrityDrops != 1 {
				t.Fatalf("want one drop, one recompute and one memory hit; stats %+v", st)
			}
			if st.Inflight != 0 {
				t.Fatalf("%d flights left open", st.Inflight)
			}
		})
	}
}

// An injected mid-snapshot write failure never reaches the serving path:
// requests succeed, the failure is counted, nothing torn is published, and a
// later engine simply recomputes (cold, but correct).
func TestEngineWriteFailpointDegradesToCold(t *testing.T) {
	faultinject.Enable("diskstore.write", faultinject.Spec{Mode: faultinject.ModeError})
	defer faultinject.Disable("diskstore.write")

	ds := testDataset()
	dir := t.TempDir()
	ctx := context.Background()
	in := FromDataset(ds)

	a := newDiskEngine(t, dir)
	want, err := a.Clusters(ctx, in, testVariant)
	if err != nil {
		t.Fatal(err) // snapshot failures must not surface to callers
	}
	a.Close()
	if st := a.Stats(); st.WriteBehindErrors == 0 {
		t.Fatalf("injected write failures not counted; stats %+v", st)
	}
	if _, err := os.Stat(snapPath(dir, in.key(StageCluster, testVariant))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a blob was published despite every write failing: %v", err)
	}

	faultinject.Disable("diskstore.write")
	b := newDiskEngine(t, dir)
	got, err := b.Clusters(ctx, in, testVariant)
	if err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.Misses == 0 {
		t.Fatal("nothing was published, so the second engine must recompute")
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("cold recompute differs")
	}
}

// Oversized artifacts spill to the disk tier even though memory never
// retains them: the repeat request costs a verified disk read, not a kernel.
func TestStoreOversizedSpillsToDisk(t *testing.T) {
	dir := t.TempDir()
	d, err := diskstore.Open(diskstore.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(100) // tiny budget: the artifact below is oversized
	s.AttachDisk(d)
	defer s.Close()

	key := Key{Input: "oversize", Stage: StageOrder, Variant: testVariant}
	ord := make([]int32, 64)
	for i := range ord {
		ord[i] = int32(i * 3)
	}
	var computes int
	compute := func(context.Context) (any, int64, error) {
		computes++
		return ord, int64(4 * len(ord)), nil // 256 bytes > the 100-byte budget
	}
	if _, src, err := s.Do(context.Background(), key, compute); err != nil || src != Computed {
		t.Fatalf("first Do = (%v, %v)", src, err)
	}
	if s.Contains(key) {
		t.Fatal("oversized artifact retained in memory")
	}
	// Wait for the write-behind spill to publish.
	deadline := time.Now().Add(5 * time.Second)
	for !s.ContainsOnDisk(key) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !s.ContainsOnDisk(key) {
		t.Fatal("oversized artifact never spilled to disk")
	}
	v, src, err := s.Do(context.Background(), key, compute)
	if err != nil || src != Disk {
		t.Fatalf("second Do = (%v, %v), want a disk load", src, err)
	}
	if got := v.([]int32); !reflect.DeepEqual(got, ord) {
		t.Fatal("disk-loaded oversized artifact differs")
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1 (repeat served from disk)", computes)
	}
	if st := s.Stats(); st.Oversized != 2 || st.DiskHits != 1 {
		t.Fatalf("stats = %+v, want 2 oversized (both Dos) and 1 disk hit", st)
	}
}

// Singleflight covers the disk tier: concurrent callers of one key while a
// disk load is in flight join it (Shared), they do not each open the file.
func TestStoreDiskLoadSingleflight(t *testing.T) {
	dir := t.TempDir()
	d, err := diskstore.Open(diskstore.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(1 << 20)
	s.AttachDisk(d)
	defer s.Close()

	key := Key{Input: "sf", Stage: StageOrder, Variant: testVariant}
	mustNotCompute := func(context.Context) (any, int64, error) {
		return nil, 0, errors.New("unexpected compute")
	}
	// Publish a snapshot, then drop the resident copy by replacing the store.
	if _, _, err := s.Do(context.Background(), key, func(context.Context) (any, int64, error) {
		return []int32{1, 2, 3}, 12, nil
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !s.ContainsOnDisk(key) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	s2 := NewStore(1 << 20)
	s2.AttachDisk(d)
	// s2 shares d with s; only close the disk tier once.
	v, src, err := s2.Do(context.Background(), key, mustNotCompute)
	if err != nil || src != Disk {
		t.Fatalf("Do = (%v, %v, %v), want a disk load", v, src, err)
	}
	if _, src, err := s2.Do(context.Background(), key, mustNotCompute); err != nil || src != Hit {
		t.Fatalf("promoted artifact not resident: (%v, %v)", src, err)
	}
}
