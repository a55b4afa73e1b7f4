package campaign

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates the library golden log instead of comparing
// against it. After an intentional change to the MAC, the estimators or
// the log format, run
//
//	go test ./internal/campaign -run TestLibraryGolden -update
//
// and commit the rewritten testdata/library.golden.jsonl with the code
// change that motivated it.
var update = flag.Bool("update", false, "rewrite the library golden log")

const libraryGolden = "testdata/library.golden.jsonl"

// TestLibraryGolden runs the checked-in library campaign — every
// scenario of the library under every estimator family, including the
// hidden-terminal, TXOP and scheduled-channel cells — and asserts its
// results log byte for byte at one and at eight workers. It is the one
// test that drives those engine paths at campaign scale.
func TestLibraryGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full 63-job library campaign")
	}
	p, err := CompileFile(filepath.Join("..", "..", "scenarios", "campaigns", "library.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		logPath := filepath.Join(t.TempDir(), "results.jsonl")
		if _, err := Run(p, RunConfig{Workers: workers, LogPath: logPath}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if *update {
			if err := os.WriteFile(libraryGolden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(libraryGolden)
		if err != nil {
			t.Fatalf("%v (run with -update to create the snapshot)", err)
		}
		if string(got) != string(want) {
			t.Fatalf("workers=%d: library log differs from its golden at %s\n(run with -update if the change is intentional)",
				workers, firstLineDiff(string(got), string(want)))
		}
	}
}

// firstLineDiff locates the first differing log line for a readable
// failure.
func firstLineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, gl, wl)
		}
	}
	return "no line differs"
}
