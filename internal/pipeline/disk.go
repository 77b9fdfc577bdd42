package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"parsample/internal/analysis"
	"parsample/internal/graph"
	"parsample/internal/mcode"
	"parsample/internal/sampling"
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

// encodeArtifact serializes a stage artifact into its snapshot blob. It
// runs on the disk tier's write-behind goroutine, off the serving path.
func encodeArtifact(key Key, val any) ([]byte, error) {
	switch key.Stage {
	case StageNetwork:
		g, ok := val.(*graph.Graph)
		if !ok {
			return nil, fmt.Errorf("pipeline: network artifact is %T", val)
		}
		return snapshot.EncodeGraph(g), nil
	case StageOrder:
		ord, ok := val.([]int32)
		if !ok {
			return nil, fmt.Errorf("pipeline: order artifact is %T", val)
		}
		return snapshot.EncodeOrder(ord), nil
	case StageFilter:
		res, ok := val.(*sampling.Result)
		if !ok || res == nil || res.Subgraph == nil {
			return nil, fmt.Errorf("pipeline: filter artifact is %T", val)
		}
		return snapshot.EncodeFiltered(res), nil
	case StageCluster:
		cs, ok := val.([]mcode.Cluster)
		if !ok {
			return nil, fmt.Errorf("pipeline: cluster artifact is %T", val)
		}
		return snapshot.EncodeClusters(cs), nil
	case StageScore:
		sc, ok := val.([]analysis.ScoredCluster)
		if !ok {
			return nil, fmt.Errorf("pipeline: score artifact is %T", val)
		}
		return snapshot.EncodeScored(sc), nil
	case StageMatch:
		ms, ok := val.([]analysis.Match)
		if !ok {
			return nil, fmt.Errorf("pipeline: match artifact is %T", val)
		}
		return snapshot.EncodeMatches(ms), nil
	}
	return nil, fmt.Errorf("pipeline: no snapshot codec for stage %v", key.Stage)
}

// decodeArtifact reconstructs a stage artifact from its snapshot blob,
// returning the value plus its resident byte estimate (the same estimators
// the compute path uses, so LRU accounting is identical either way). Any
// decode failure — truncation, corruption, version skew, type mismatch — is
// an error the caller turns into an ordinary miss.
func decodeArtifact(key Key, data []byte) (any, int64, error) {
	switch key.Stage {
	case StageNetwork:
		g, err := snapshot.DecodeGraph(data)
		if err != nil {
			return nil, 0, err
		}
		return g, graphBytes(g), nil
	case StageOrder:
		ord, err := snapshot.DecodeOrder(data)
		if err != nil {
			return nil, 0, err
		}
		return ord, int64(4 * len(ord)), nil
	case StageFilter:
		res, err := snapshot.DecodeFiltered(data)
		if err != nil {
			return nil, 0, err
		}
		return res, graphBytes(res.Subgraph), nil
	case StageCluster:
		cs, err := snapshot.DecodeClusters(data)
		if err != nil {
			return nil, 0, err
		}
		return cs, clustersBytes(cs), nil
	case StageScore:
		sc, err := snapshot.DecodeScored(data)
		if err != nil {
			return nil, 0, err
		}
		return sc, scoredBytes(sc), nil
	case StageMatch:
		ms, err := snapshot.DecodeMatches(data)
		if err != nil {
			return nil, 0, err
		}
		return ms, int64(48 * len(ms)), nil
	}
	return nil, 0, fmt.Errorf("pipeline: no snapshot codec for stage %v", key.Stage)
}

// scoredBytes mirrors the compute path's Score-stage estimate
// (clustersBytes over the underlying clusters plus the score summaries).
func scoredBytes(sc []analysis.ScoredCluster) int64 {
	b := int64(64*len(sc)) + int64(64*len(sc))
	for i := range sc {
		b += int64(4 * len(sc[i].Cluster.Vertices))
	}
	return b
}
