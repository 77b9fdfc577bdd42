package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"parsample/internal/snapshot"
)

// diskNameVersion tags the key-hash domain. Bumping it (or
// snapshot.FormatVersion, which is folded in below) cheaply invalidates
// every existing cache directory: old blobs simply stop being addressed and
// age out under the byte budget.
const diskNameVersion = 1

// diskName maps an artifact key to its content-addressed blob name: the
// hex SHA-256 of a canonical binary encoding of every Key field. Equal keys
// denote byte-identical artifacts (the determinism contract on Key), so
// equal names across processes and replicas address interchangeable blobs —
// provided the caller honored Input.Name's contract of uniquely identifying
// the input data. Every api.Request path does by construction: Input.Name
// is the request's content fingerprint (api.Request.Fingerprint).
func diskName(key Key) string {
	h := sha256.New()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wi := func(v int64) { w(uint64(v)) }
	wf := func(v float64) { w(math.Float64bits(v)) }
	wb := func(v bool) {
		if v {
			w(1)
		} else {
			w(0)
		}
	}
	w(diskNameVersion)
	w(snapshot.FormatVersion)
	w(uint64(len(key.Input)))
	h.Write([]byte(key.Input))
	wi(int64(key.Stage))
	wi(int64(key.Variant.Ordering))
	wi(int64(key.Variant.Algorithm))
	wi(int64(key.Variant.P))
	wi(key.OrderSeed)
	wi(key.FilterSeed)
	wi(int64(key.Net.Kind))
	wf(key.Net.MinAbsR)
	wf(key.Net.MaxP)
	wi(int64(key.Net.Workers)) // zeroed in keys; hashed for completeness
	wb(key.Net.Negative)
	wi(int64(key.Net.Precision)) // zeroed in keys; hashed for completeness
	wf(key.MCODE.VertexWeightPercentage)
	wb(key.MCODE.Haircut)
	wf(key.MCODE.MinScore)
	wi(int64(key.MCODE.MinSize))
	wb(key.MCODE.Fluff)
	wf(key.MCODE.FluffDensityThreshold)
	return hex.EncodeToString(h.Sum(nil))
}
