package experiments

import (
	"bytes"
	"encoding/csv"
	"math"
	"strings"
	"testing"

	"repro/internal/opt"
	"repro/internal/stats"
)

// tiny returns a minimal configuration that keeps unit tests fast while
// exercising the full code paths.
func tiny() Config {
	return Config{
		Replications: 3,
		Seed:         7,
		Workers:      4,
		Opt:          opt.Options{MaxIterations: 600, RelGap: 1e-4},
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2b", "fig3", "fig45", "fig6", "fig7", "tab2",
		"fig8", "fig9", "fig10", "tab3", "fig11", "fig11-stress",
		"ablation-order", "ablation-refine", "ablation-capsearch", "ablation-quantize",
		"ablation-split", "baseline-partition", "baseline-online",
		"baseline-governor", "robustness", "ablation-bound", "extension-capped",
		"extension-hetero",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, d := range all {
		if d.ID != want[i] {
			t.Errorf("registry[%d] = %q, want %q", i, d.ID, want[i])
		}
		if d.Run == nil || d.Title == "" {
			t.Errorf("registry[%d] incomplete", i)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("fig6"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown ID should fail")
	}
}

func TestFig45MatchesPaper(t *testing.T) {
	res, err := Run("fig45", tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		m := p.Series["measured"].Mean
		pw := p.Series["paper"].Mean
		if math.Abs(m-pw) > 5e-3 {
			t.Errorf("%s: measured %.4f vs paper %.4f", p.Label, m, pw)
		}
	}
}

func TestFig1MatchesPaper(t *testing.T) {
	res, err := Run("fig1", tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Three bands: [0,4]@0.75, [4,8]@1, [8,12]@0.75.
	if len(res.Points) != 3 {
		t.Fatalf("bands = %d, want 3", len(res.Points))
	}
	speeds := []float64{0.75, 1, 0.75}
	for i, p := range res.Points {
		if math.Abs(p.Series["speed"].Mean-speeds[i]) > 1e-9 {
			t.Errorf("band %d speed = %g, want %g", i, p.Series["speed"].Mean, speeds[i])
		}
	}
}

func TestFig2bMatchesKKT(t *testing.T) {
	res, err := Run("fig2b", tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if math.Abs(p.Series["A_i"].Mean-p.Series["A_i (KKT)"].Mean) > 0.02 {
			t.Errorf("%s: solver A=%.4f vs KKT %.4f", p.Label, p.Series["A_i"].Mean, p.Series["A_i (KKT)"].Mean)
		}
	}
}

func TestFig3Deterministic(t *testing.T) {
	res, err := Run("fig3", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Points[0].Series["energy"].Mean; math.Abs(got-2.05) > 1e-9 {
		t.Errorf("stretch energy = %g, want 2.05", got)
	}
	if got := res.Points[1].Series["energy"].Mean; math.Abs(got-2.00) > 1e-9 {
		t.Errorf("truncate energy = %g, want 2.00", got)
	}
}

func TestFig6ShapeHolds(t *testing.T) {
	res, err := Fig6(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 11 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		f2 := p.Series["F2"].Mean
		f1 := p.Series["F1"].Mean
		i2 := p.Series["I2"].Mean
		// NEC ≥ ~1 (up to solver gap slack).
		if f2 < 0.98 {
			t.Errorf("p0=%s: NEC(F2)=%.4f below 1", p.Label, f2)
		}
		// F2 ≤ I2 always (refinement).
		if f2 > i2+1e-9 {
			t.Errorf("p0=%s: F2 %.4f > I2 %.4f", p.Label, f2, i2)
		}
		// The paper's headline: F2 near-optimal, under ~1.35 even with few
		// replications.
		if f2 > 1.35 {
			t.Errorf("p0=%s: NEC(F2)=%.4f too far from optimal", p.Label, f2)
		}
		// F1 is never dramatically better than F2 on average at this scale.
		if f1 < f2-0.15 {
			t.Errorf("p0=%s: F1 %.4f beats F2 %.4f by a suspicious margin", p.Label, f1, f2)
		}
	}
}

func TestTable3FitNotes(t *testing.T) {
	res, err := Run("tab3", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("points = %d, want 5 XScale levels", len(res.Points))
	}
	for _, p := range res.Points {
		meas := p.Series["measured"].Mean
		fit := p.Series["fitted"].Mean
		if math.Abs(meas-fit) > 0.15*meas+25 {
			t.Errorf("%s MHz: fit %.1f too far from measured %.1f", p.Label, fit, meas)
		}
	}
}

func TestTableRendering(t *testing.T) {
	res, err := Run("fig3", tiny())
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Table()
	for _, frag := range []string{"fig3", "strategy", "stretch to 5", "2.05"} {
		if !strings.Contains(tab, frag) {
			t.Errorf("table missing %q:\n%s", frag, tab)
		}
	}
}

func TestSweepDeterminism(t *testing.T) {
	cfg := tiny()
	a, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		for _, s := range SeriesNames {
			if a.Points[i].Series[s].Mean != b.Points[i].Series[s].Mean {
				t.Fatalf("point %d series %s differs across identical runs", i, s)
			}
		}
	}
}

func TestFig9Runs(t *testing.T) {
	res, err := Fig9(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 10 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// The lo=1.0 point has all intensities 1: every heuristic must still
	// produce valid NEC values.
	last := res.Points[len(res.Points)-1]
	if math.IsNaN(last.Series["F2"].Mean) {
		t.Error("degenerate intensity range produced NaN")
	}
}

func TestFig11MissRatesPresent(t *testing.T) {
	cfg := tiny()
	res, err := Fig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 9 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		// Five approaches plus the fundamental-infeasibility floor.
		if len(p.MissRate) != 6 {
			t.Fatalf("miss rates missing: %v", p.MissRate)
		}
		// No m-core scheduler can miss less often than infeasibility
		// forces ("Idl" is exempt: it assumes unlimited cores).
		for _, s := range []string{"I1", "F1", "I2", "F2"} {
			if p.MissRate[s] < p.MissRate["infeasible"]-1e-9 {
				t.Errorf("%s: miss(%s)=%.3f below infeasible floor %.3f",
					p.Label, s, p.MissRate[s], p.MissRate["infeasible"])
			}
		}
		// F2 should miss at most as often as I1 (quantized).
		if p.MissRate["F2"] > p.MissRate["I1"]+1e-9 {
			t.Errorf("%s: miss(F2)=%.2f > miss(I1)=%.2f", p.Label, p.MissRate["F2"], p.MissRate["I1"])
		}
	}
}

func TestBaselinesRun(t *testing.T) {
	cfg := tiny()
	for _, id := range []string{"baseline-partition", "baseline-online", "ablation-split", "baseline-governor", "robustness"} {
		res, err := Run(id, cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Points) == 0 {
			t.Errorf("%s produced no points", id)
		}
	}
}

func TestAblationSplitDominance(t *testing.T) {
	res, err := AblationSplit(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.Series["two-level"].Mean > p.Series["round-up"].Mean+1e-6 {
			t.Errorf("%s: two-level %.2f worse than round-up %.2f",
				p.Label, p.Series["two-level"].Mean, p.Series["round-up"].Mean)
		}
		if p.Series["two-level"].Mean < p.Series["continuous"].Mean*0.8 {
			t.Errorf("%s: two-level implausibly below continuous", p.Label)
		}
	}
}

func TestBaselineOnlinePremiumNonNegativeOnAverage(t *testing.T) {
	res, err := BaselineOnline(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.Series["online-F2"].Mean < p.Series["F2"].Mean*0.9 {
			t.Errorf("%s: online NEC %.4f suspiciously below offline %.4f",
				p.Label, p.Series["online-F2"].Mean, p.Series["F2"].Mean)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	cfg := tiny()
	for _, id := range []string{"ablation-order", "ablation-refine", "ablation-capsearch", "ablation-quantize", "ablation-bound"} {
		res, err := Run(id, cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Points) == 0 {
			t.Errorf("%s produced no points", id)
		}
	}
}

func TestExtensionCappedNeverMisses(t *testing.T) {
	res, err := ExtensionCapped(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.MissRate["capped energy"] > 0 {
			t.Errorf("%s: capped variant missed with probability %.3f",
				p.Label, p.MissRate["capped energy"])
		}
	}
}

func TestExtensionHeteroSavingNonNegative(t *testing.T) {
	res, err := ExtensionHetero(tiny())
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, p := range res.Points {
		if p.Series["assigned"].Mean > p.Series["identity"].Mean+1e-9 {
			t.Errorf("%s: assignment worse than identity", p.Label)
		}
		if s := p.Series["saving %"].Mean; s < prev-0.5 {
			t.Errorf("%s: saving %.3f dropped well below previous %.3f (should grow with spread)", p.Label, s, prev)
		} else {
			prev = s
		}
	}
	// Zero spread → zero saving exactly.
	if s := res.Points[0].Series["saving %"].Mean; s > 1e-9 {
		t.Errorf("zero-spread saving should be 0, got %g", s)
	}
}

func TestAblationRefineRatiosAtLeastOne(t *testing.T) {
	res, err := AblationRefine(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		for _, s := range res.SeriesOrder {
			if v := p.Series[s].Mean; v < 1-1e-9 {
				t.Errorf("%s %s ratio %.4f < 1", p.Label, s, v)
			}
		}
	}
}

func TestAblationCoreSearchDominates(t *testing.T) {
	res, err := AblationCoreSearch(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.Series["searched"].Mean > p.Series["all-cores"].Mean+1e-9 {
			t.Errorf("%s: searched %.4f worse than all-cores %.4f",
				p.Label, p.Series["searched"].Mean, p.Series["all-cores"].Mean)
		}
	}
}

func TestWriteCSVRoundTrips(t *testing.T) {
	r := &Result{
		ID: "x", Title: "t", XLabel: "p0",
		SeriesOrder: []string{"A", "B"},
		Points: []Point{
			{Label: "0.0", Series: map[string]stats.Summary{
				"A": {Mean: 1.5, CI95: 0.1}, "B": {Mean: 2.5, CI95: 0.2},
			}},
			{Label: "0.1", Series: map[string]stats.Summary{
				"A": {Mean: 1.6, CI95: 0.1}, "B": {Mean: 2.4, CI95: 0.2},
			}},
		},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want header + 2", len(rows))
	}
	if rows[0][0] != "p0" || rows[0][1] != "A" || rows[0][3] != "A_ci95" {
		t.Errorf("header = %v", rows[0])
	}
	if rows[1][1] != "1.5" {
		t.Errorf("A mean cell = %q", rows[1][1])
	}
}

func TestWriteCSVWithMissRates(t *testing.T) {
	r := &Result{
		XLabel:      "x",
		SeriesOrder: []string{"F2"},
		Points: []Point{
			{Label: "a", Series: map[string]stats.Summary{"F2": {Mean: 1}},
				MissRate: map[string]float64{"F2": 0.25}},
		},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "F2_miss") || !strings.Contains(out, "0.25") {
		t.Errorf("missing miss columns:\n%s", out)
	}
}
