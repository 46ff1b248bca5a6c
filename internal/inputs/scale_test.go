package inputs

import "testing"

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"small", "default", "full", ""} {
		if _, err := ScaleByName(name); err != nil {
			t.Fatalf("%q: %v", name, err)
		}
	}
	if _, err := ScaleByName("gigantic"); err == nil {
		t.Fatal("bad scale accepted")
	}
}
