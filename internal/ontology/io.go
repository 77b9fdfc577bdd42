package ontology

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteDAG serializes the DAG in a minimal OBO-flavored flat format:
//
//	[Term]
//	id: 5
//	is_a: 1
//	is_a: 2
//
// Terms are written in id order; the root (id 0) carries no is_a lines.
func WriteDAG(w io.Writer, d *DAG) error {
	bw := bufio.NewWriter(w)
	for t := 0; t < d.NumTerms(); t++ {
		if _, err := fmt.Fprintf(bw, "[Term]\nid: %d\n", t); err != nil {
			return err
		}
		ps := append([]TermID(nil), d.Parents(TermID(t))...)
		sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
		for _, p := range ps {
			if _, err := fmt.Fprintf(bw, "is_a: %d\n", p); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadDAG parses the format written by WriteDAG. Term ids must be dense and
// in increasing order starting at 0.
func ReadDAG(r io.Reader) (*DAG, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var parents [][]TermID
	cur := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "!"):
			continue
		case line == "[Term]":
			cur = -2 // term open, id pending
		case strings.HasPrefix(line, "id: "):
			if cur != -2 {
				return nil, fmt.Errorf("ontology: line %d: id outside [Term]", lineNo)
			}
			id, err := strconv.Atoi(strings.TrimPrefix(line, "id: "))
			if err != nil {
				return nil, fmt.Errorf("ontology: line %d: bad id: %v", lineNo, err)
			}
			if id != len(parents) {
				return nil, fmt.Errorf("ontology: line %d: term id %d out of order (want %d)", lineNo, id, len(parents))
			}
			parents = append(parents, nil)
			cur = id
		case strings.HasPrefix(line, "is_a: "):
			if cur < 0 {
				return nil, fmt.Errorf("ontology: line %d: is_a outside a term", lineNo)
			}
			p, err := strconv.Atoi(strings.TrimPrefix(line, "is_a: "))
			if err != nil {
				return nil, fmt.Errorf("ontology: line %d: bad is_a: %v", lineNo, err)
			}
			parents[cur] = append(parents[cur], TermID(p))
		default:
			return nil, fmt.Errorf("ontology: line %d: unrecognized line %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return NewDAG(parents)
}

// WriteAnnotations serializes annotations as "gene<TAB>term" pairs (a GAF-
// style two-column association file).
func WriteAnnotations(w io.Writer, a *Annotations) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# genes: %d\n", a.NumGenes()); err != nil {
		return err
	}
	for g := 0; g < a.NumGenes(); g++ {
		ts := append([]TermID(nil), a.Terms(int32(g))...)
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		for _, t := range ts {
			if _, err := fmt.Fprintf(bw, "%d\t%d\n", g, t); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadAnnotations parses the format written by WriteAnnotations. The
// "# genes: N" header fixes the table size; without it, N is one more than
// the largest gene id seen.
func ReadAnnotations(r io.Reader) (*Annotations, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	n := -1
	type pair struct {
		g int32
		t TermID
	}
	var pairs []pair
	maxG := int32(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if n < 0 {
				f := strings.Fields(line)
				if len(f) >= 3 && f[1] == "genes:" {
					if v, err := strconv.Atoi(f[2]); err == nil {
						n = v
					}
				}
			}
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("ontology: line %d: want 'gene term', got %q", lineNo, line)
		}
		g, err := strconv.ParseInt(f[0], 10, 32)
		if err != nil || g < 0 {
			return nil, fmt.Errorf("ontology: line %d: bad gene %q", lineNo, f[0])
		}
		t, err := strconv.ParseInt(f[1], 10, 32)
		if err != nil || t < 0 {
			return nil, fmt.Errorf("ontology: line %d: bad term %q", lineNo, f[1])
		}
		pairs = append(pairs, pair{int32(g), TermID(t)})
		if int32(g) > maxG {
			maxG = int32(g)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		n = int(maxG) + 1
	}
	// Guard against hostile or corrupt headers and ids before allocating
	// the per-gene table: one short line must not cost gigabytes. The cap
	// is the edge-list reader's vertex limit, so every network's genes fit.
	const maxGenes = 1 << 26
	if n > maxGenes {
		return nil, fmt.Errorf("ontology: gene count %d exceeds limit %d", n, maxGenes)
	}
	if int(maxG) >= n {
		return nil, fmt.Errorf("ontology: gene id %d out of declared range %d", maxG, n)
	}
	a := NewAnnotations(n)
	for _, p := range pairs {
		a.Annotate(p.g, p.t)
	}
	return a, nil
}
