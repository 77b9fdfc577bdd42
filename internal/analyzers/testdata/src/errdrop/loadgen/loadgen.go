// Package loadgen is errdrop analyzer testdata: error results of this
// module's functions discarded with the blank identifier, next to the
// standard-library and non-error discards the analyzer leaves alone.
package loadgen

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

type stats struct{ shed int }

type client struct{ addr string }

// statsz returns a snapshot or the error that prevented one.
func (c *client) statsz() (*stats, error) { return &stats{}, nil }

// flush reports whether the buffered writes reached the server.
func flush() error { return nil }

// counters returns two tallies and no error.
func counters() (sent, lost int) { return 0, 0 }

// dropped discards this module's errors in every assignment shape.
func dropped(c *client) int {
	before, _ := c.statsz() // want "error result of loadgen.statsz discarded"
	_ = flush()             // want "error result of loadgen.flush discarded"
	var _ = flush()         // want "error result of loadgen.flush discarded"
	n, _ := 1, flush()      // want "error result of loadgen.flush discarded"
	return before.shed + n
}

// kept handles the error, so nothing is flagged.
func kept(c *client) (int, error) {
	st, err := c.statsz()
	if err != nil {
		return 0, err
	}
	return st.shed, flush()
}

// library discards are the standard library's business, and blanks that
// hold no error drop nothing.
func library(r io.Reader, dir string, m *sync.Map) int {
	b, _ := io.ReadAll(r)
	_ = os.Chtimes(dir, time.Time{}, time.Time{})
	_ = filepath.WalkDir(dir, nil)
	_, _ = m.LoadOrStore("k", 1)
	head, _, _ := strings.Cut(string(b), " ")
	sent, _ := counters()
	return len(head) + sent
}

// suppressed documents why the error cannot matter here.
func suppressed() {
	//parsamplevet:ignore errdrop the next write flushes again and reports
	_ = flush()
	// want+1 "suppression of parsamplevet/errdrop requires a reason"
	//parsamplevet:ignore errdrop
	_ = flush() // want "error result of loadgen.flush discarded"
}
