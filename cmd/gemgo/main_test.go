package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

const (
	fixtures     = "../../internal/gofront/testdata/src"
	raceFixtures = "../../internal/race/testdata/src"
)

// TestRunCorpus runs gemgo over every fixture package — the gofront
// corpus and the race corpus: defective fixtures must report exactly
// the code they are named for (with the exit status its severity
// implies), clean lookalikes must report nothing.
func TestRunCorpus(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join(fixtures, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 10 {
		t.Fatalf("expected at least 10 fixture packages, found %d", len(dirs))
	}
	raceDirs, err := filepath.Glob(filepath.Join(raceFixtures, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raceDirs) < 8 {
		t.Fatalf("expected at least 8 race fixture packages, found %d", len(raceDirs))
	}
	dirs = append(dirs, raceDirs...)
	for _, dir := range dirs {
		name := filepath.Base(dir)
		t.Run(name, func(t *testing.T) {
			var out, errb strings.Builder
			code := run([]string{dir}, &out, &errb)
			if strings.HasPrefix(name, "clean_") {
				if code != 0 || out.String() != "" {
					t.Errorf("clean fixture: exit=%d output:\n%s%s", code, out.String(), errb.String())
				}
				return
			}
			wantCode := strings.ToUpper(name[:strings.Index(name, "_")])
			if code == 0 {
				t.Errorf("defective fixture exited 0; stderr: %s", errb.String())
			}
			for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
				if !strings.Contains(line, wantCode+" ") {
					t.Errorf("line reports a code other than %s:\n%s", wantCode, line)
				}
			}
		})
	}
}

// TestRunParallelDeterministic: the -j fan-out over both corpora must
// produce byte-identical, file-ordered output regardless of the worker
// count — the race pass included.
func TestRunParallelDeterministic(t *testing.T) {
	patterns := []string{fixtures + "/...", raceFixtures + "/..."}
	var first string
	for i, j := range []string{"1", "8"} {
		var out, errb strings.Builder
		run(append([]string{"-j", j}, patterns...), &out, &errb)
		if i == 0 {
			first = out.String()
		} else if out.String() != first {
			t.Errorf("-j %s output differs:\n--- j=1 ---\n%s--- j=%s ---\n%s", j, first, j, out.String())
		}
	}
	for _, want := range []string{"GEM013", "GEM016", "GEM018", "GEM019", "GEM020"} {
		if !strings.Contains(first, want) {
			t.Fatalf("corpus output missing %s:\n%s", want, first)
		}
	}
}

// TestRunSARIF: -format=sarif over the corpus is valid SARIF 2.1.0 with
// the gemgo driver name and a rule entry for every reported code.
func TestRunSARIF(t *testing.T) {
	var out, errb strings.Builder
	run([]string{"-format=sarif", fixtures + "/...", raceFixtures + "/..."}, &out, &errb)
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out.String()), &log); err != nil {
		t.Fatalf("output is not valid SARIF JSON: %v\n%s", err, out.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected SARIF envelope: version=%q runs=%d", log.Version, len(log.Runs))
	}
	r := log.Runs[0]
	if r.Tool.Driver.Name != "gemgo" {
		t.Errorf("driver name = %q, want gemgo", r.Tool.Driver.Name)
	}
	rules := make(map[string]bool)
	for _, rule := range r.Tool.Driver.Rules {
		rules[rule.ID] = true
	}
	if len(r.Results) == 0 {
		t.Fatal("no SARIF results for the defect corpus")
	}
	for _, res := range r.Results {
		if !rules[res.RuleID] {
			t.Errorf("result rule %s missing from rules block", res.RuleID)
		}
	}
	// The race corpus must contribute its own rule.
	if !rules["GEM018"] {
		t.Error("race corpus produced no GEM018 rule in the SARIF rules block")
	}
}

// TestRunJSONClean: a clean package yields an empty JSON array and exit 0.
func TestRunJSONClean(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-json", filepath.Join(fixtures, "clean_gem013_paired")}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, errb.String())
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Fatalf("expected empty JSON array, got: %s", out.String())
	}
}

// TestRunCodes: -codes prints the full shared registry.
func TestRunCodes(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-codes"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, want := range []string{
		"GEM001", "GEM013", "GEM014", "GEM015", "GEM016",
		"GEM017", "GEM018", "GEM019", "GEM020",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-codes output missing %s", want)
		}
	}
}

// TestRunDumpSpec: -dump-spec renders the extracted model instead of
// diagnostics.
func TestRunDumpSpec(t *testing.T) {
	var out, errb strings.Builder
	run([]string{"-dump-spec", filepath.Join(fixtures, "clean_gem013_paired")}, &out, &errb)
	for _, want := range []string{"model main.main", "element main.g1", "rendezvous_ch", "computation:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-dump-spec output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunNoArgsIsUsageError mirrors the gemlint convention.
func TestRunNoArgsIsUsageError(t *testing.T) {
	var out, errb strings.Builder
	if got := run(nil, &out, &errb); got != 2 {
		t.Fatalf("exit = %d, want 2", got)
	}
	if !strings.Contains(errb.String(), "usage:") {
		t.Fatalf("expected usage on stderr, got: %s", errb.String())
	}
}

// TestRunMissingDir: a nonexistent package is a load error (exit 2).
func TestRunMissingDir(t *testing.T) {
	var out, errb strings.Builder
	if got := run([]string{t.TempDir() + "/absent"}, &out, &errb); got != 2 {
		t.Fatalf("exit = %d, want 2", got)
	}
}

// TestRunTraceWriteFailure: a -trace file that cannot be written is an
// I/O failure (exit 2), even when the package itself is clean.
func TestRunTraceWriteFailure(t *testing.T) {
	var out, errb strings.Builder
	bad := filepath.Join(t.TempDir(), "missing", "t.json")
	if code := run([]string{"-trace", bad, filepath.Join(fixtures, "clean_gem013_paired")}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "gemgo: obs:") {
		t.Errorf("stderr does not report the trace failure: %s", errb.String())
	}
}
