package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden experiment tables under testdata/")

// goldenIDs are the experiments pinned byte-for-byte. All ten are pure
// simulation artifacts — no wall-clock-dependent cells (which excludes
// table6's solver timing) — so quick-mode output is fully deterministic.
// Quick mode also attaches the invariant oracle to every cell, making each
// golden regeneration a complete invariant audit of the planner and engine
// (routed1 additionally audits the admission router and the multi-shard
// harness; elastic1 audits every capacity transition the rebalancer applies;
// cacheplan1 audits the step-cache dimension, quality ledger included).
// ext1 and fig15 are the tables that justify core.Config's surviving switches
// (and fig15's 1- and 10-step rows the only ones that exercise the
// schedOverhead and maxRound constants), so they are pinned too. hetero1 is
// the third fleet table: routing across unequal shards.
var goldenIDs = []string{"fig7", "fig8", "table5", "fault1", "routed1", "elastic1", "cacheplan1", "ext1", "fig15", "hetero1"}

// goldenCtx pins every knob the tables depend on; the Context defaults are
// free to evolve without invalidating the goldens.
func goldenCtx() Context {
	return Context{
		Quick:       true,
		Seed:        1,
		NumRequests: 100,
		Rate:        12,
	}
}

func renderExperiment(t *testing.T, id string) []byte {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tbl := range e.Run(goldenCtx()) {
		buf.WriteString(tbl.String())
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestGoldenTables byte-compares the quick-mode output of the pinned
// experiments against the committed tables. A diff means a behavior change:
// either a regression, or an intentional improvement to be reviewed and
// committed via `go test ./internal/experiments -run TestGoldenTables -update`.
func TestGoldenTables(t *testing.T) {
	for _, id := range goldenIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			got := renderExperiment(t, id)
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s output diverged from golden table.\nRegenerate with -update after reviewing the diff.\n--- got ---\n%s\n--- want ---\n%s",
					id, got, want)
			}
		})
	}
}
