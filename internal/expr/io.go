package expr

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
)

// WriteCSV writes the matrix as CSV: a header row "gene,s0,s1,...", then one
// row per gene with the gene id in the first column. This is the layout of a
// typical GEO series matrix export after probe collapsing.
func WriteCSV(w io.Writer, m *Matrix) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	header := make([]string, m.Samples+1)
	header[0] = "gene"
	for s := 0; s < m.Samples; s++ {
		header[s+1] = fmt.Sprintf("s%d", s)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, m.Samples+1)
	for g := 0; g < m.Genes; g++ {
		row[0] = strconv.Itoa(g)
		for s := 0; s < m.Samples; s++ {
			row[s+1] = strconv.FormatFloat(m.At(g, s), 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV parses the format written by WriteCSV. The first row must be a
// header; every subsequent row is one gene. Gene order follows row order
// (the first column is informational only). Every expression value must
// be finite: a NaN or ±Inf cell is an error naming its row and column.
func ReadCSV(r io.Reader) (*Matrix, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("expr: csv: %w", err)
	}
	if len(records) < 2 {
		return nil, fmt.Errorf("expr: csv needs a header plus at least one gene row")
	}
	samples := len(records[0]) - 1
	if samples < 1 {
		return nil, fmt.Errorf("expr: csv header has no sample columns")
	}
	genes := len(records) - 1
	m := NewMatrix(genes, samples)
	for gi, rec := range records[1:] {
		if len(rec) != samples+1 {
			return nil, fmt.Errorf("expr: csv row %d has %d fields, want %d", gi+2, len(rec), samples+1)
		}
		for s := 0; s < samples; s++ {
			v, err := strconv.ParseFloat(rec[s+1], 64)
			if err != nil {
				return nil, fmt.Errorf("expr: csv row %d col %d: %w", gi+2, s+2, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("expr: csv row %d col %d: non-finite value %q", gi+2, s+2, rec[s+1])
			}
			m.Set(gi, s, v)
		}
	}
	return m, nil
}
