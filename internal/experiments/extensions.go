package experiments

import (
	"fmt"

	"tetriserve/internal/core"
	"tetriserve/internal/metrics"
	"tetriserve/internal/sim"
	"tetriserve/internal/tablefmt"
	"tetriserve/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "ext1",
		Title: "Extensions ablation — design choices beyond the paper's Table 5",
		Summary: "Toggles this reproduction's own mechanisms (eager admission, " +
			"selective batching, quantization-aware allocation, best-effort lane) " +
			"to quantify what each contributes on top of the paper's scheduler.",
		Run: runExt1,
	})
}

// extVariant builds one row of the extensions ablation.
func extVariant(name string) core.Config {
	cfg := core.DefaultConfig()
	switch name {
	case "Full (default)":
	case "- Eager admission":
		cfg.EagerAdmission = false
	case "- Selective batching":
		cfg.SelectiveBatching = false
	case "- Quantization-aware mix":
		cfg.QuantizationAwareMix = false
	case "- Best-effort lane":
		cfg.BestEffortLane = false
	default:
		panic("experiments: unknown extension variant " + name)
	}
	return cfg
}

// ExtensionVariants lists the extensions-ablation rows in order.
func ExtensionVariants() []string {
	return []string{
		"Full (default)",
		"- Eager admission",
		"- Selective batching",
		"- Quantization-aware mix",
		"- Best-effort lane",
	}
}

func runExt1(ctx Context) []*tablefmt.Table {
	ctx = ctx.withDefaults()
	f := fix("flux-h100")
	mixes := []workload.Mix{workload.UniformMix(), workload.SkewedMix(1.0)}
	variants := ExtensionVariants()
	scales := []float64{1.0, 1.5}
	results := mapCells(ctx, len(mixes)*len(variants)*len(scales), func(i int) *sim.Result {
		mi := i / (len(variants) * len(scales))
		vi := i / len(scales) % len(variants)
		si := i % len(scales)
		sc := core.NewScheduler(f.prof, f.topo, extVariant(variants[vi]))
		return runOne(ctx, f, sc, trace(ctx, f, mixes[mi], nil, scales[si]))
	})
	var tables []*tablefmt.Table
	for mi, mix := range mixes {
		t := tablefmt.New(
			fmt.Sprintf("Extensions ablation, %s mix (SAR / mean latency s)", mix.Name()),
			"Variant", "SLO=1.0x SAR", "SLO=1.0x MeanLat", "SLO=1.5x SAR", "SLO=1.5x MeanLat")
		for vi, variant := range variants {
			row := []string{variant}
			for si := range scales {
				res := results[mi*len(variants)*len(scales)+vi*len(scales)+si]
				row = append(row, fm(metrics.SAR(res)), fm(metrics.MeanLatency(res)))
			}
			t.AddRow(row...)
		}
		t.AddNote("mechanisms this reproduction adds on top of the paper; each row removes one")
		tables = append(tables, t)
	}
	return tables
}
