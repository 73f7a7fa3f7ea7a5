package report

import (
	"os"
	"testing"
)

// TestMain points the temp dir at one the run removes at exit: the
// remote calibration test builds adaptbf-node into a temp dir, and that
// build must not outlive the test binary.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "adaptbf-report-test-")
	if err != nil {
		panic(err)
	}
	os.Setenv("TMPDIR", dir)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}
