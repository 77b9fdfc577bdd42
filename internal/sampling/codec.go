package sampling

import (
	"encoding/binary"
	"fmt"

	"parsample/internal/comm"
	"parsample/internal/graph"
)

// Wire codecs for the sampler-private payload types. The simulated runtime
// passes these between ranks as in-memory values; the TCP transport
// serializes them through the comm payload registry. Registration happens
// at init time so a transport-backed run decodes exactly the concrete
// types the kernels type-assert on (borderMsg in chordalWithComm's receive
// loop, rankResult in gatherParts).
//
// Determinism: borderMsg edge order is semantic (the receiver's chordality
// tests and ops accounting depend on processing order), so the codec
// preserves slice order exactly. rankResult edges are already sorted and
// deduplicated (newRankResult), so the wire bytes of a given partial
// result are reproducible run over run.
//
// Decoding treats the bytes as untrusted: every edge must be normalized
// (0 ≤ U < V) and a rankResult's edges strictly ascending. Endpoints are
// checked against the vertex universe where it is known — mergeParts and
// the chordal-comm receiver.

// Payload kinds owned by this package.
const (
	kindBorderMsg  uint16 = iota + 1 // chordalWithComm border chunk
	kindRankResult                   // gathered per-rank partial result
)

func init() {
	comm.RegisterCodec(comm.Codec{
		Kind:   kindBorderMsg,
		Match:  func(v any) bool { _, ok := v.(borderMsg); return ok },
		Encode: func(v any) []byte { return appendEdges(nil, v.(borderMsg).edges) },
		Decode: func(data []byte) (any, error) {
			edges, err := readEdges(data)
			if err != nil {
				return nil, fmt.Errorf("sampling: borderMsg payload: %w", err)
			}
			return borderMsg{edges: edges}, nil
		},
	})
	comm.RegisterCodec(comm.Codec{
		Kind:  kindRankResult,
		Match: func(v any) bool { _, ok := v.(rankResult); return ok },
		Encode: func(v any) []byte {
			pr := v.(rankResult)
			return appendEdges(binary.LittleEndian.AppendUint64(nil, uint64(pr.restarts)), pr.edges)
		},
		Decode: func(data []byte) (any, error) {
			if len(data) < 8 {
				return nil, fmt.Errorf("sampling: rankResult payload is %d bytes", len(data))
			}
			edges, err := readEdges(data[8:])
			if err != nil {
				return nil, fmt.Errorf("sampling: rankResult payload: %w", err)
			}
			for i := 1; i < len(edges); i++ {
				if graph.CompareEdges(edges[i-1], edges[i]) >= 0 {
					return nil, fmt.Errorf("sampling: rankResult payload: edge %d (%d,%d) does not follow (%d,%d)",
						i, edges[i].U, edges[i].V, edges[i-1].U, edges[i-1].V)
				}
			}
			return rankResult{edges: edges, restarts: int64(binary.LittleEndian.Uint64(data))}, nil
		},
	})
}

// appendEdges serializes a [count][u,v]* edge vector onto buf.
func appendEdges(buf []byte, edges []graph.Edge) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(edges)))
	for _, e := range edges {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.U))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.V))
	}
	return buf
}

// readEdges reverses appendEdges. The vector must fill data exactly and
// every edge must be normalized (0 ≤ U < V).
func readEdges(data []byte) ([]graph.Edge, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("edge vector truncated (%d bytes)", len(data))
	}
	n := uint64(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if uint64(len(data)) != 8*n {
		return nil, fmt.Errorf("edge vector of %d edges in %d bytes", n, len(data))
	}
	edges := make([]graph.Edge, n)
	for i := range edges {
		e := graph.Edge{U: int32(binary.LittleEndian.Uint32(data[8*i:])), V: int32(binary.LittleEndian.Uint32(data[8*i+4:]))}
		if e.U < 0 || e.U >= e.V {
			return nil, fmt.Errorf("edge %d (%d,%d) is not normalized", i, e.U, e.V)
		}
		edges[i] = e
	}
	return edges, nil
}
