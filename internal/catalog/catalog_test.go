package catalog

import (
	"slices"
	"testing"
)

// TestTable: the catalog lists each app once, in name order; every entry
// can build and run its input; exactly the entries whose runs consume or
// mutate their input have a Reset; the paper's five figure apps are marked;
// and Has answers from the entries themselves (pfp and sssp have no pbbs).
func TestTable(t *testing.T) {
	var names, paper, exclusive, noPBBS []string
	for _, app := range Apps() {
		names = append(names, app.Name)
		if app.Paper {
			paper = append(paper, app.Name)
		}
		if app.Exclusive {
			exclusive = append(exclusive, app.Name)
		}
		if app.Family == "" || app.Build == nil || app.Size == nil || app.Run == nil || app.Seq == nil {
			t.Errorf("%s: incomplete entry %+v", app.Name, app)
		}
		if (app.Reset != nil) != app.Exclusive {
			t.Errorf("%s: Exclusive %v but Reset set %v", app.Name, app.Exclusive, app.Reset != nil)
		}
		for _, v := range Variants {
			if want := v != "pbbs" || app.PBBS != nil; app.Has(v) != want {
				t.Errorf("%s: Has(%q) = %v", app.Name, v, !want)
			}
		}
		if app.Has("nosuch") {
			t.Errorf("%s: Has(nosuch)", app.Name)
		}
		if !app.Has("pbbs") {
			noPBBS = append(noPBBS, app.Name)
		}
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"apps", names, []string{"bfs", "dmr", "dt", "mis", "msf", "pfp", "sssp"}},
		{"paper apps", paper, []string{"bfs", "dmr", "dt", "mis", "pfp"}},
		{"exclusive apps", exclusive, []string{"dmr", "pfp"}},
		{"apps without pbbs", noPBBS, []string{"pfp", "sssp"}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s = %v, want %v", c.what, c.got, c.want)
		}
	}
	if a, b := Apps(), Apps(); a[0] == b[0] {
		t.Error("Apps handed out the same entry twice")
	}
}
