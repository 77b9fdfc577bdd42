package ontology

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzReadDAG: the OBO-flavored parser must never panic, and any accepted
// DAG must round-trip through WriteDAG.
func FuzzReadDAG(f *testing.F) {
	f.Add("[Term]\nid: 0\n\n[Term]\nid: 1\nis_a: 0\n")
	f.Add("")
	f.Add("! comment\n[Term]\nid: 0\n")
	f.Add("[Term]\nid: 0\nis_a: 0\n")
	f.Add("[Term]\nid: 7\n")
	f.Fuzz(func(t *testing.T, input string) {
		d, err := ReadDAG(bytes.NewBufferString(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteDAG(&buf, d); err != nil {
			t.Fatalf("write after read: %v", err)
		}
		d2, err := ReadDAG(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if d2.NumTerms() != d.NumTerms() {
			t.Fatal("round trip changed term count")
		}
	})
}

// FuzzReadAnnotations: same contract for the association-file parser.
func FuzzReadAnnotations(f *testing.F) {
	f.Add("# genes: 3\n0\t1\n2\t5\n")
	f.Add("0\t0\n")
	f.Add("")
	f.Add("#\n")
	f.Fuzz(func(t *testing.T, input string) {
		a, err := ReadAnnotations(bytes.NewBufferString(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteAnnotations(&buf, a); err != nil {
			t.Fatalf("write after read: %v", err)
		}
		if _, err := ReadAnnotations(&buf); err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
	})
}

// FuzzEdgeScoreMatchesOracle: on a random DAG and annotation table, a
// Scorer reused across calls agrees with the map-based oracle on DCP, term
// distance, EdgeScore and ScoreCluster, dominant term included.
func FuzzEdgeScoreMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(0), uint8(3))
	f.Add(int64(2), uint8(40), uint8(1), uint8(12))
	f.Add(int64(3), uint8(200), uint8(3), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, terms, maxParents, genes uint8) {
		rng := rand.New(rand.NewSource(seed))
		d := randomDAG(rng, 1+int(terms), 1+int(maxParents)%4)
		s := NewScorer(d, randomAnnotations(rng, d, 1+int(genes)%32))
		checkScorerMatchesOracle(t, s, rng)
	})
}
