package gantt

import (
	"strings"
	"testing"
	"time"

	"tetriserve/internal/model"
	"tetriserve/internal/sim"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

func mkResult() *sim.Result {
	res := &sim.Result{NGPU: 4}
	res.AppendRun(sim.RunRecord{
		Start: 0, End: time.Second, Degree: 2,
		Res:   model.Res1024,
		Group: simgpu.MaskOf(0, 1),
	}, []workload.RequestID{1})
	res.AppendRun(sim.RunRecord{
		Start: time.Second, End: 2 * time.Second, Degree: 1,
		Res:     model.Res256,
		Group:   simgpu.MaskOf(3),
		Batched: true,
	}, []workload.RequestID{2, 3})
	return res
}

func TestRenderBasics(t *testing.T) {
	out := Render(mkResult(), Config{Width: 20})
	if !strings.Contains(out, "GPU0") || !strings.Contains(out, "GPU3") {
		t.Fatalf("missing GPU rows:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	// Header + 4 GPU rows + legend.
	if len(lines) < 6 {
		t.Fatalf("too few lines:\n%s", out)
	}
	// GPU0 busy for the first half: its row should start with the glyph
	// for request 1 and contain idle dots later.
	var gpu0 string
	for _, l := range lines {
		if strings.HasPrefix(l, "GPU0") {
			gpu0 = l
		}
	}
	if !strings.Contains(gpu0, "1") || !strings.Contains(gpu0, ".") {
		t.Fatalf("GPU0 row wrong: %q", gpu0)
	}
}

func TestRenderBatchedGlyph(t *testing.T) {
	out := Render(mkResult(), Config{Width: 20})
	if !strings.Contains(out, "#") {
		t.Fatalf("batched block should render as '#':\n%s", out)
	}
}

func TestRenderCustomRunes(t *testing.T) {
	out := Render(mkResult(), Config{
		Width: 20,
		Runes: map[workload.RequestID]rune{1: 'L'},
	})
	if !strings.Contains(out, "L=req1") {
		t.Fatalf("legend missing custom rune:\n%s", out)
	}
}

func TestRenderEmpty(t *testing.T) {
	out := Render(&sim.Result{NGPU: 2}, Config{})
	if !strings.Contains(out, "empty timeline") {
		t.Fatalf("empty result should say so: %q", out)
	}
}

func TestRenderWindow(t *testing.T) {
	out := Render(mkResult(), Config{Width: 10, From: 1500 * time.Millisecond, To: 2 * time.Second})
	// Request 1 ended at 1s; only the batch should appear.
	if strings.Contains(out, "1=req1") && strings.Contains(out, " 1") {
		t.Fatalf("out-of-window block rendered:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Fatalf("in-window batch missing:\n%s", out)
	}
}

func TestRenderIdleGPUsAllDots(t *testing.T) {
	out := Render(mkResult(), Config{Width: 20})
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "GPU2") {
			body := l[strings.Index(l, "|")+1 : strings.LastIndex(l, "|")]
			if strings.Trim(body, ".") != "" {
				t.Fatalf("GPU2 never ran anything but shows %q", body)
			}
		}
	}
}

// TestRenderLogOutOfStartOrder: a log whose records are not in start order
// (a preempted block is logged at the resize, after later-starting blocks
// finished) still draws each block with its own members.
func TestRenderLogOutOfStartOrder(t *testing.T) {
	res := &sim.Result{NGPU: 4}
	res.AppendRun(sim.RunRecord{
		Start: time.Second, End: 2 * time.Second, Degree: 1,
		Res:     model.Res256,
		Group:   simgpu.MaskOf(3),
		Batched: true,
	}, []workload.RequestID{2, 3})
	res.AppendRun(sim.RunRecord{
		Start: 0, End: time.Second, Degree: 2,
		Res:   model.Res1024,
		Group: simgpu.MaskOf(0, 1),
	}, []workload.RequestID{1})
	out := Render(res, Config{Width: 20})
	for _, l := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(l, "GPU0"):
			if !strings.Contains(l, "|1111111111..........|") {
				t.Fatalf("GPU0 should carry request 1 in the first half: %q", l)
			}
		case strings.HasPrefix(l, "GPU3"):
			if !strings.Contains(l, "|..........##########|") {
				t.Fatalf("GPU3 should carry the batch in the second half: %q", l)
			}
		}
	}
	if !strings.Contains(out, "1=req1") {
		t.Fatalf("legend missing request 1:\n%s", out)
	}
}

// TestLegendListsOnlyDrawnGlyphs: every glyph the legend names is drawn
// and every drawn request glyph is in the legend. Request 2 only ever runs
// inside a batch, so it takes no glyph; request 3 also runs alone and does.
func TestLegendListsOnlyDrawnGlyphs(t *testing.T) {
	res := mkResult()
	res.AppendRun(sim.RunRecord{
		Start: 2 * time.Second, End: 3 * time.Second, Degree: 1,
		Res:   model.Res256,
		Group: simgpu.MaskOf(2),
	}, []workload.RequestID{3})
	out := Render(res, Config{Width: 30})
	drawn := map[rune]bool{}
	var legend []string
	for _, l := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(l, "GPU"):
			for _, g := range l[strings.Index(l, "|"):] {
				if g != '|' && g != '.' && g != '#' {
					drawn[g] = true
				}
			}
		case strings.HasPrefix(l, "legend:"):
			legend = strings.Fields(strings.TrimSuffix(strings.TrimPrefix(l, "legend:"), "  #=batched  .=idle"))
		}
	}
	if got, want := strings.Join(legend, " "), "1=req1 2=req3"; got != want {
		t.Errorf("legend = %q, want %q\n%s", got, want, out)
	}
	named := map[rune]bool{}
	for _, e := range legend {
		g := []rune(e)[0]
		named[g] = true
		if !drawn[g] {
			t.Errorf("legend names %q, which no cell shows\n%s", e, out)
		}
	}
	for g := range drawn {
		if !named[g] {
			t.Errorf("glyph %c is drawn but not in the legend\n%s", g, out)
		}
	}
}
