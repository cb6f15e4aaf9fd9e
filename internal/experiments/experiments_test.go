package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"tetriserve/internal/control"
	"tetriserve/internal/engine"
	"tetriserve/internal/sim"
	"tetriserve/internal/tablefmt"
	"tetriserve/internal/workload"
)

// quickCtx keeps experiment tests fast.
func quickCtx() Context {
	return Context{Quick: true, NumRequests: 100, ExhaustiveTimeout: 300 * time.Millisecond}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "table1", "fig2", "fig3", "fig4", "fig7", "fig8", "fig9",
		"table3", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"table4", "table5", "table6", "ext1", "ext2", "fault1", "routed1",
		"elastic1", "hetero1", "cacheplan1",
	}
	for _, id := range want {
		if _, err := ByID(id); err != nil {
			t.Errorf("missing experiment %q: every paper table and figure needs a runner", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

func TestRegistryIDsUniqueAndDescribed(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Summary == "" || e.Run == nil {
			t.Errorf("experiment %q missing metadata", e.ID)
		}
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestOrderingFollowsPaper(t *testing.T) {
	all := All()
	// Figures sort before tables, each numerically.
	var figs []int
	for _, e := range all {
		if strings.HasPrefix(e.ID, "fig") {
			n, _ := strconv.Atoi(strings.TrimPrefix(e.ID, "fig"))
			figs = append(figs, n)
		}
	}
	for i := 1; i < len(figs); i++ {
		if figs[i] < figs[i-1] {
			t.Fatalf("figure order broken: %v", figs)
		}
	}
}

// findCell fetches a named row's column from a table.
func findCell(t *testing.T, tb *tablefmt.Table, rowPrefix string, col int) float64 {
	t.Helper()
	for _, row := range tb.Rows {
		if strings.HasPrefix(row[0], rowPrefix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "%"), 64)
			if err != nil {
				t.Fatalf("cell %q not numeric: %v", row[col], err)
			}
			return v
		}
	}
	t.Fatalf("row %q not found in table %q", rowPrefix, tb.Title)
	return 0
}

func TestTable1ReproducesAnchors(t *testing.T) {
	tables := mustRun(t, "table1", quickCtx())
	tb := tables[0]
	if got := findCell(t, tb, "256x256", 2); got != 556.48 {
		t.Fatalf("256px TFLOPs = %v, want 556.48", got)
	}
	if got := findCell(t, tb, "1024x1024", 2); got != 5045.92 {
		t.Fatalf("1024px TFLOPs = %v", got)
	}
	// Every CV below the paper's 0.7% bound.
	for _, row := range tb.Rows {
		for _, cell := range row[3:] {
			v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
			if err != nil {
				t.Fatalf("CV cell %q: %v", cell, err)
			}
			if v >= 0.7 {
				t.Fatalf("CV %v%% exceeds the paper's bound", v)
			}
		}
	}
}

// TestFig1ToyOutcome pins the motivating example: TetriServe meets all
// three deadlines, fixed SP=1 only the small request, fixed SP=4 only the
// large one.
func TestFig1ToyOutcome(t *testing.T) {
	tb := mustRun(t, "fig1", quickCtx())[0]
	row := func(name string) string {
		for _, r := range tb.Rows {
			if r[0] == name {
				return r[4]
			}
		}
		t.Fatalf("row %q missing", name)
		return ""
	}
	if got := row("TetriServe"); got != "3/3" {
		t.Errorf("TetriServe met %s, want 3/3", got)
	}
	if got := row("xDiT SP=1"); got != "1/3" {
		t.Errorf("xDiT SP=1 met %s, want 1/3", got)
	}
	if got := row("xDiT SP=4"); got != "1/3" {
		t.Errorf("xDiT SP=4 met %s, want 1/3", got)
	}
}

func TestFig2CommShape(t *testing.T) {
	tb := mustRun(t, "fig2", quickCtx())[0]
	if got := findCell(t, tb, "256x256", 4); got <= 30 {
		t.Fatalf("256px SP=8 comm%% = %v, want > 30", got)
	}
	if got := findCell(t, tb, "2048x2048", 4); got >= 10 {
		t.Fatalf("2048px SP=8 comm%% = %v, want < 10", got)
	}
}

func TestFig3EfficiencyShape(t *testing.T) {
	tables := mustRun(t, "fig3", quickCtx())
	if len(tables) != 3 {
		t.Fatalf("fig3 should emit BS∈{1,2,4} tables, got %d", len(tables))
	}
	tb := tables[0]
	if got := findCell(t, tb, "2048x2048", 4); got < 0.75 {
		t.Fatalf("2048px SP=8 efficiency = %v, want ≥ 0.75", got)
	}
	if got := findCell(t, tb, "256x256", 4); got > 0.5 {
		t.Fatalf("256px SP=8 efficiency = %v, want ≤ 0.5", got)
	}
}

// TestFig7TetriServeWins is the repository's headline assertion: TetriServe
// beats every fixed-SP variant and RSSP at every SLO scale on the Uniform
// mix (Figure 7a).
func TestFig7TetriServeWins(t *testing.T) {
	tb := mustRun(t, "fig7", quickCtx())[0]
	for col := 1; col <= 6; col++ {
		tetri := findCell(t, tb, "TetriServe", col)
		for _, base := range []string{"xDiT SP=1", "xDiT SP=2", "xDiT SP=4", "xDiT SP=8", "RSSP"} {
			b := findCell(t, tb, base, col)
			if tetri+1e-9 < b {
				t.Errorf("col %d: TetriServe %.2f below %s %.2f", col, tetri, base, b)
			}
		}
	}
}

func TestFig8SkewedWins(t *testing.T) {
	tb := mustRun(t, "fig8", quickCtx())[0]
	for col := 1; col <= 6; col++ {
		tetri := findCell(t, tb, "TetriServe", col)
		for _, base := range []string{"xDiT SP=1", "xDiT SP=8", "RSSP"} {
			if b := findCell(t, tb, base, col); tetri+1e-9 < b {
				t.Errorf("col %d: TetriServe %.2f below %s %.2f", col, tetri, base, b)
			}
		}
	}
}

func TestTable5AblationOrdering(t *testing.T) {
	tables := mustRun(t, "table5", quickCtx())
	for _, tb := range tables {
		// Full system (+ Elastic Scale-Up) must beat schedule-only on SAR
		// at both scales.
		for _, col := range []int{1, 3} {
			base := findCell(t, tb, "TetriServe schedule", col)
			full := findCell(t, tb, "+ Elastic Scale-Up", col)
			if full < base {
				t.Errorf("%s col %d: full system %.2f below schedule-only %.2f", tb.Title, col, full, base)
			}
		}
	}
}

func TestTable6ExplosionShape(t *testing.T) {
	ctx := quickCtx()
	ctx.ExhaustiveTimeout = 500 * time.Millisecond
	tables := mustRun(t, "table6", ctx)
	for _, tb := range tables {
		// Exhaustive planning time grows with queue depth; the final row
		// must exceed the first by orders of magnitude or hit the timeout.
		first := tb.Rows[0][1]
		last := tb.Rows[len(tb.Rows)-1][1]
		if !strings.HasPrefix(last, ">") {
			fv, _ := strconv.ParseFloat(first, 64)
			lv, _ := strconv.ParseFloat(last, 64)
			if lv < fv*10 {
				t.Errorf("%s: no combinatorial explosion visible (%v → %v)", tb.Title, first, last)
			}
		}
		// TetriServe's DP stays in single-digit milliseconds.
		for _, row := range tb.Rows {
			dp, err := strconv.ParseFloat(row[4], 64)
			if err != nil {
				t.Fatalf("DP cell %q: %v", row[4], err)
			}
			if dp > 10 {
				t.Errorf("%s: DP latency %vms exceeds the paper's 10ms claim", tb.Title, dp)
			}
		}
	}
}

func TestTable3CachingComposes(t *testing.T) {
	tb := mustRun(t, "table3", quickCtx())[0]
	for _, row := range tb.Rows {
		vals := make([]float64, 4)
		for i := 0; i < 4; i++ {
			v, err := strconv.ParseFloat(row[i+1], 64)
			if err != nil {
				t.Fatal(err)
			}
			vals[i] = v
		}
		rssp, tetri, rsspN, tetriN := vals[0], vals[1], vals[2], vals[3]
		if tetri < rssp {
			t.Errorf("%s: TetriServe %.2f below RSSP %.2f", row[0], tetri, rssp)
		}
		if tetriN < tetri || tetriN < rsspN {
			t.Errorf("%s: combined system %.2f should be the best column (%v)", row[0], tetriN, vals)
		}
	}
}

func TestFig4FixedStrategiesTradeOff(t *testing.T) {
	tables := mustRun(t, "fig4", quickCtx())
	spider := tables[1]
	// SP=1 fails completely on 2048px; SP=8 handles it.
	if got := findCell(t, spider, "xDiT SP=1", 4); got > 0.05 {
		t.Errorf("SP=1 on 2048px SAR = %v, want ≈0", got)
	}
	if got := findCell(t, spider, "xDiT SP=8", 4); got < 0.3 {
		t.Errorf("SP=8 on 2048px SAR = %v, want substantial", got)
	}
	// SP=1 near-perfect on 256px.
	if got := findCell(t, spider, "xDiT SP=1", 1); got < 0.95 {
		t.Errorf("SP=1 on 256px SAR = %v, want ≈1", got)
	}
}

func TestFig13GracefulDegradation(t *testing.T) {
	tb := mustRun(t, "fig13", quickCtx())[0]
	low := findCell(t, tb, "TetriServe", 1)
	high := findCell(t, tb, "TetriServe", 5)
	if high > low {
		t.Errorf("SAR should not improve with load: %.2f@6/min vs %.2f@18/min", low, high)
	}
	if high < 0.3 {
		t.Errorf("degradation not graceful: SAR %.2f at 18/min", high)
	}
}

func TestFig15StrictRoundsPreferModerate(t *testing.T) {
	tables := mustRun(t, "fig15", quickCtx())
	strict := tables[1]
	// Under strict rounds at 12/min, granularity 5 beats 1 and 10 (the
	// paper's robustness claim).
	g1 := findCell(t, strict, "1 steps", 2)
	g5 := findCell(t, strict, "5 steps", 2)
	g10 := findCell(t, strict, "10 steps", 2)
	if g5 < g1 || g5 < g10 {
		t.Errorf("moderate granularity should be most robust: g1=%.2f g5=%.2f g10=%.2f", g1, g5, g10)
	}
}

func TestTable4TransferNegligible(t *testing.T) {
	tb := mustRun(t, "table4", quickCtx())[0]
	for _, row := range tb.Rows {
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
			if err != nil {
				t.Fatal(err)
			}
			if v >= 0.05 {
				t.Errorf("latent transfer %v%% exceeds the paper's 0.05%% bound", v)
			}
		}
	}
}

// TestFault1RequeueBeatsAblation is the failure sweep's acceptance claim: a
// faulted simulation completes without panicking at every fault count, and
// on the sweep's own trace the requeue recovers every fault victim while the
// no-requeue ablation drops each one. Requeue wins by construction only when
// a victim can still meet its SLO once requeued (sim's
// TestRequeueRescuesVictimByConstruction); on this trace the one victim, a
// 2048² block, misses in both arms, so the two arms' SAR is not compared.
func TestFault1RequeueBeatsAblation(t *testing.T) {
	ctx := quickCtx()
	ctx.NumRequests = 120
	ctx.Rate = 20
	tables := mustRun(t, "fault1", ctx)
	if len(tables) != 2 {
		t.Fatalf("fault1 emitted %d tables, want sweep + ablation", len(tables))
	}

	// TetriServe must survive (not stall) at every fault count in the sweep.
	for _, row := range tables[0].Rows {
		if row[0] == "TetriServe" && row[2] == "stalled" {
			t.Fatalf("TetriServe stalled at %s faults; round-based recovery must never deadlock", row[1])
		}
	}

	ctx = ctx.withDefaults()
	f := fix("flux-h100")
	reqs := trace(ctx, f, workload.UniformMix(), nil, 1.5)
	for faults := 1; faults <= 2; faults++ {
		for _, noRequeue := range []bool{false, true} {
			cfg := faultCellConfig(ctx, f, newTetri(f), reqs, failureFaults(ctx, faults), noRequeue)
			// executed sums each request's finished steps: whole blocks
			// that retired plus the prefix credited when a fault aborted one.
			executed := map[workload.RequestID]int{}
			victims := map[workload.RequestID]bool{}
			cfg.Hooks = control.Hooks{
				RunFinished: func(_ time.Duration, run *engine.Run) {
					for id, n := range run.Steps {
						executed[id] += n
					}
				},
				RunAborted: func(_ time.Duration, _ *engine.Run, stepsDone map[workload.RequestID]int) {
					for id, n := range stepsDone {
						executed[id] += n
						victims[id] = true
					}
				},
			}
			res, err := sim.Run(cfg)
			if err != nil {
				t.Fatalf("%d fault(s), no-requeue %v: %v", faults, noRequeue, err)
			}
			if len(victims) == 0 {
				t.Fatalf("%d fault(s): no block was aborted; the trace exercises no recovery", faults)
			}
			for _, o := range res.Outcomes {
				if !victims[o.ID] {
					continue
				}
				allRan := executed[o.ID] == o.Steps
				switch {
				case noRequeue && !allRan && (!o.Dropped || o.Cause != control.DropFault):
					t.Errorf("%d fault(s), no-requeue: victim %d with steps left ends dropped=%v cause %q, want a fault drop",
						faults, o.ID, o.Dropped, o.Cause)
				case !noRequeue && o.Dropped && o.Cause == control.DropFault:
					t.Errorf("%d fault(s), requeue: victim %d dropped as a fault victim", faults, o.ID)
				case !noRequeue && (!o.Dropped || o.Cause == control.DropTimeout) && !allRan:
					t.Errorf("%d fault(s), requeue: victim %d finished after %d of %d steps; the aborted prefix was not credited once",
						faults, o.ID, executed[o.ID], o.Steps)
				}
			}
		}
	}
}

func mustRun(t *testing.T, id string, ctx Context) []*tablefmt.Table {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tables := e.Run(ctx)
	if len(tables) == 0 {
		t.Fatalf("experiment %s produced no tables", id)
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Fatalf("experiment %s produced an empty table %q", id, tb.Title)
		}
	}
	return tables
}
