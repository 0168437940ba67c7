package workload

import (
	"reflect"
	"testing"

	"karousos.dev/karousos/internal/apps/appkit"
	"karousos.dev/karousos/internal/harness"
	"karousos.dev/karousos/internal/server"
)

func TestMOTDMixRatios(t *testing.T) {
	for _, tc := range []struct {
		mix  Mix
		want float64
	}{
		{ReadHeavy, 0.10},
		{WriteHeavy, 0.90},
		{Mixed, 0.50},
	} {
		reqs := MOTD(2000, tc.mix, 7)
		writes := 0
		for _, r := range reqs {
			if appkit.Str(appkit.Field(r.Input, "op")) == "set" {
				writes++
			}
		}
		got := float64(writes) / float64(len(reqs))
		if got < tc.want-0.05 || got > tc.want+0.05 {
			t.Errorf("%s: write fraction %.3f, want ≈%.2f", tc.mix, got, tc.want)
		}
	}
}

func TestMOTDDeterministic(t *testing.T) {
	a := MOTD(100, Mixed, 42)
	b := MOTD(100, Mixed, 42)
	for i := range a {
		if a[i].RID != b[i].RID || appkit.Str(appkit.Field(a[i].Input, "op")) != appkit.Str(appkit.Field(b[i].Input, "op")) {
			t.Fatal("same seed produced different workloads")
		}
	}
	c := MOTD(100, Mixed, 43)
	same := true
	for i := range a {
		if appkit.Str(appkit.Field(a[i].Input, "op")) != appkit.Str(appkit.Field(c[i].Input, "op")) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical op streams")
	}
}

func TestMOTDUniqueRIDs(t *testing.T) {
	reqs := MOTD(500, Mixed, 1)
	seen := map[string]bool{}
	for _, r := range reqs {
		if seen[string(r.RID)] {
			t.Fatalf("duplicate rid %s", r.RID)
		}
		seen[string(r.RID)] = true
	}
}

func TestStacksNewDumpFraction(t *testing.T) {
	reqs := Stacks(3000, WriteHeavy, 5, DefaultStacksOptions())
	dumps := map[string]int{}
	reports := 0
	for _, r := range reqs {
		if appkit.Str(appkit.Field(r.Input, "op")) == "report" {
			reports++
			dumps[appkit.Str(appkit.Field(r.Input, "dump"))]++
		}
	}
	if reports == 0 {
		t.Fatal("no reports in write-heavy stream")
	}
	frac := float64(len(dumps)) / float64(reports)
	// ~10% of reports are new dumps.
	if frac < 0.05 || frac > 0.2 {
		t.Errorf("unique dump fraction %.3f, want ≈0.10", frac)
	}
}

func TestStacksReadOpsSplit(t *testing.T) {
	reqs := Stacks(2000, ReadHeavy, 5, DefaultStacksOptions())
	ops := map[string]int{}
	for _, r := range reqs {
		ops[appkit.Str(appkit.Field(r.Input, "op"))]++
	}
	if ops["count"] == 0 || ops["list"] == 0 || ops["report"] == 0 {
		t.Errorf("missing op kinds: %v", ops)
	}
	if ops["list"] > ops["count"] {
		t.Errorf("lists (%d) should be rarer than counts (%d)", ops["list"], ops["count"])
	}
}

func TestStacksReqIDsPresent(t *testing.T) {
	for _, r := range Stacks(50, Mixed, 1, DefaultStacksOptions()) {
		op := appkit.Str(appkit.Field(r.Input, "op"))
		if op == "report" || op == "list" {
			if appkit.Str(appkit.Field(r.Input, "reqid")) == "" {
				t.Fatalf("%s request without reqid", op)
			}
		}
	}
}

func TestWikiMix(t *testing.T) {
	reqs := Wiki(3000, 9)
	ops := map[string]int{}
	for _, r := range reqs {
		ops[appkit.Str(appkit.Field(r.Input, "op"))]++
	}
	n := float64(len(reqs))
	if got := float64(ops["create"]) / n; got < 0.20 || got > 0.30 {
		t.Errorf("create fraction %.3f, want ≈0.25", got)
	}
	if got := float64(ops["comment"]) / n; got < 0.10 || got > 0.20 {
		t.Errorf("comment fraction %.3f, want ≈0.15", got)
	}
	if got := float64(ops["render"]) / n; got < 0.55 || got > 0.65 {
		t.Errorf("render fraction %.3f, want ≈0.60", got)
	}
}

func TestWikiFinitePagePool(t *testing.T) {
	reqs := Wiki(1000, 3)
	pages := map[string]bool{}
	for _, r := range reqs {
		if id := appkit.Str(appkit.Field(r.Input, "id")); id != "" {
			pages[id] = true
		}
	}
	if len(pages) > 45 {
		t.Errorf("page pool too large: %d", len(pages))
	}
	if len(pages) < 10 {
		t.Errorf("page pool suspiciously small: %d", len(pages))
	}
}

func TestUnknownMixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown mix should panic")
		}
	}()
	MOTD(1, Mix("bogus"), 1)
}

func TestWithRepeatsFractionAndDeterminism(t *testing.T) {
	base := MOTD(2000, Mixed, 11)
	a, err := WithRepeats(base, "motd", 0.6, 11)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := Repeats("motd")
	if err != nil {
		t.Fatal(err)
	}
	inPool := func(in any) bool {
		for _, p := range pool {
			if appkit.Str(appkit.Field(in, "day")) == appkit.Str(appkit.Field(p, "day")) &&
				appkit.Str(appkit.Field(in, "op")) == "get" {
				return true
			}
		}
		return false
	}
	repeats := 0
	for _, r := range a {
		if inPool(r.Input) {
			repeats++
		}
	}
	// The pool days overlap organic gets, so the count can only overshoot.
	if got := float64(repeats) / float64(len(a)); got < 0.55 {
		t.Errorf("repeat fraction %.3f, want ≥0.55", got)
	}
	b, err := WithRepeats(MOTD(2000, Mixed, 11), "motd", 0.6, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if appkit.Str(appkit.Field(a[i].Input, "op")) != appkit.Str(appkit.Field(b[i].Input, "op")) ||
			appkit.Str(appkit.Field(a[i].Input, "day")) != appkit.Str(appkit.Field(b[i].Input, "day")) {
			t.Fatal("same seed produced different repeat rewrites")
		}
	}
}

func TestWithRepeatsValidation(t *testing.T) {
	base := MOTD(10, Mixed, 1)
	if _, err := WithRepeats(base, "motd", 1.5, 1); err == nil {
		t.Error("fraction > 1 should fail")
	}
	if _, err := WithRepeats(base, "nope", 0.5, 1); err == nil {
		t.Error("unknown app should fail")
	}
	out, err := WithRepeats(base, "motd", 0, 1)
	if err != nil || len(out) != len(base) {
		t.Errorf("zero fraction should pass through: %v", err)
	}
	for _, app := range []string{"motd", "stacks", "wiki", "feeds"} {
		pool, err := Repeats(app)
		if err != nil || len(pool) == 0 {
			t.Errorf("%s: no recurring pool (%v)", app, err)
		}
		// Recurring shapes must be read-only or the carry never fixes.
		for _, p := range pool {
			switch op := appkit.Str(appkit.Field(p, "op")); op {
			case "get", "count", "render", "view":
			default:
				t.Errorf("%s recurring pool contains non-read op %q", app, op)
			}
		}
	}
}

// TestForCoversEveryApp: For is the one app-name to stream table, so every
// application SpecByName knows must map to its own generator (never a
// fallback to another app's stream), and an unknown name is an error.
func TestForCoversEveryApp(t *testing.T) {
	gens := map[string]func(mix Mix, n int, seed int64) []server.Request{
		"motd":   func(mix Mix, n int, seed int64) []server.Request { return MOTD(n, mix, seed) },
		"stacks": func(mix Mix, n int, seed int64) []server.Request { return Stacks(n, mix, seed, DefaultStacksOptions()) },
		"wiki":   func(_ Mix, n int, seed int64) []server.Request { return Wiki(n, seed) },
		"feeds":  func(mix Mix, n int, seed int64) []server.Request { return Feeds(n, mix, seed) },
	}
	for _, spec := range harness.Apps() {
		if _, err := harness.SpecByName(spec.Name); err != nil {
			t.Fatal(err)
		}
		gen, ok := gens[spec.Name]
		if !ok {
			t.Errorf("app %q has no generator in this test", spec.Name)
			continue
		}
		for _, mix := range []Mix{ReadHeavy, WriteHeavy, Mixed} {
			got, err := For(spec.Name, mix, 50, 3)
			if err != nil {
				t.Fatalf("For(%q): %v", spec.Name, err)
			}
			if want := gen(mix, 50, 3); !reflect.DeepEqual(got, want) {
				t.Errorf("For(%q, %s) differs from the app's generator", spec.Name, mix)
			}
		}
	}
	for _, name := range []string{"", "nope", "Wiki"} {
		if _, err := For(name, Mixed, 5, 1); err == nil {
			t.Errorf("For(%q) should fail", name)
		}
	}
}
