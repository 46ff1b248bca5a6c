package lint

import (
	"encoding/json"
	"os/exec"
	"testing"
)

// TestSelfApplication shells out the real CLI over the whole repository,
// exactly as CI does. The tree must stay hazard-free: any determinism
// hazard reintroduced anywhere in the module makes tier-1 `go test ./...`
// fail through this test.
func TestSelfApplication(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI round-trip in -short mode")
	}
	modRoot, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"run", "./cmd/detlint", "./..."},
		{"run", "./cmd/detlint", "-run", "failsafe,commitpure,taintfp", "./..."},
	} {
		cmd := exec.Command("go", args...)
		cmd.Dir = modRoot
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("detlint %v reported hazards or failed:\n%s\nerror: %v", args[2:], out, err)
		}
	}
}

// TestSelfApplicationJSON checks the machine-readable output path end to
// end: a clean tree must produce a valid, empty JSON array.
func TestSelfApplicationJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI round-trip in -short mode")
	}
	modRoot, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", "./cmd/detlint", "-json", "./...")
	cmd.Dir = modRoot
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("detlint -json failed:\n%s\nerror: %v", out, err)
	}
	var records []struct {
		File string `json:"file"`
		Line int    `json:"line"`
		Rule string `json:"rule"`
		Msg  string `json:"msg"`
	}
	if err := json.Unmarshal(out, &records); err != nil {
		t.Fatalf("detlint -json output is not a JSON array: %v\n%s", err, out)
	}
	if len(records) != 0 {
		t.Errorf("clean tree produced %d JSON findings: %+v", len(records), records)
	}
}
