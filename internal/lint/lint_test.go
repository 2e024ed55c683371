package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestIgnoreDirectives pins the suppression grammar: the check list
// must name an ogsalint check, the reason is mandatory, and a
// directive covers its own line plus the line below.
func TestIgnoreDirectives(t *testing.T) {
	const src = `package p

//lint:ignore ogsalint/rawxml golden wire capture
var a = "<Envelope/>"

//lint:ignore ogsalint/poolescape
var b = 1

//lint:ignore ogsalint/rawxml,ogsalint/soapfault shared reason
var c = 2

//lint:ignore SA1019 someone else's directive, not ours
var d = 3
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "ignore.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	set, bad := collectIgnores(fset, []*ast.File{f})

	if len(bad) != 1 {
		t.Fatalf("want exactly 1 reason-less directive reported, got %d: %v", len(bad), bad)
	}
	if bad[0].Check != "ogsalint/ignore" || bad[0].Pos.Line != 6 {
		t.Errorf("bad-directive diagnostic misattributed: %+v", bad[0])
	}

	covered := func(line int, check string) bool {
		return set.covers(Diagnostic{
			Pos:   token.Position{Filename: "ignore.go", Line: line},
			Check: check,
		})
	}
	if !covered(4, "ogsalint/rawxml") {
		t.Error("directive must cover the line below it")
	}
	if !covered(3, "ogsalint/rawxml") {
		t.Error("directive must cover its own line")
	}
	if covered(5, "ogsalint/rawxml") {
		t.Error("directive must not reach two lines down")
	}
	if covered(7, "ogsalint/poolescape") {
		t.Error("reason-less directive must not suppress anything")
	}
	if !covered(10, "ogsalint/soapfault") || !covered(10, "ogsalint/rawxml") {
		t.Error("comma-separated check list must cover every named check")
	}
	if covered(13, "SA1019") {
		t.Error("non-ogsalint directives are not ours to honor")
	}
}

// TestAnalyzersStable pins the suite composition `ogsalint -doc`
// advertises.
func TestAnalyzersStable(t *testing.T) {
	want := []string{"poolescape", "lockheld", "ctxflow", "soapfault", "rawxml", "atomicmix", "goroutinelife", "timerleak", "spanleak"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc line", a.Name)
		}
	}
}
