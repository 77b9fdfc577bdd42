package analyzers_test

import (
	"testing"

	"parsample/internal/analyzers"
	"parsample/internal/analyzers/analyzertest"
)

// TestErrDrop covers this module's error results discarded with _ in
// every assignment shape (tuple, single, var, parallel), the handled
// error, standard-library and non-error blanks, a test file's discards,
// and a reasoned and a reasonless suppression.
func TestErrDrop(t *testing.T) {
	analyzertest.Run(t, analyzers.ErrDrop, "errdrop/loadgen")
}
