// ogsalint is the project's static-analysis driver: it runs the nine
// internal/lint analyzers (poolescape, lockheld, ctxflow, soapfault,
// rawxml, atomicmix, goroutinelife, timerleak, spanleak) over package
// patterns, printing findings in the familiar file:line:col form. It
// exits 0 when the tree is clean and 1 when anything fires, so
// `make lint` gates CI.
//
// In standalone mode the whole load is indexed into one
// interprocedural Program, so summaries see through helpers across
// package boundaries within the module.
//
// Two invocation modes:
//
//	ogsalint ./...             standalone, used by `make lint`
//	go vet -vettool=$(which ogsalint) ./...
//
// The vettool mode speaks the go command's unit-checker protocol: the
// go tool invokes the binary with -V=full for cache keying, and then
// once per package with a JSON config file argument describing the
// compilation unit (sources, import map, export data). Findings go to
// stderr; the exit status tells the go command whether to fail.
//
// Standalone-mode flags:
//
//	-json                emit findings as a JSON array on stdout,
//	                     including suppressed findings (flagged), so
//	                     the output doubles as a baseline inventory
//	-baseline file.json  diff against a previous -json inventory and
//	                     report only findings not present in it
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"altstacks/internal/lint"
)

func main() {
	printVersion := flag.String("V", "", "print version (go vet protocol)")
	printFlags := flag.Bool("flags", false, "print analyzer flags as JSON (go vet protocol)")
	printDoc := flag.Bool("doc", false, "print each analyzer's invariant and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout (standalone mode)")
	baselinePath := flag.String("baseline", "", "JSON inventory from a previous -json run; report only new findings")
	flag.Parse()

	switch {
	case *printVersion != "":
		// The go command caches vet results keyed on this line.
		fmt.Println("ogsalint version v1.0.0")
		return
	case *printFlags:
		fmt.Println("[]")
		return
	case *printDoc:
		for _, a := range lint.Analyzers() {
			fmt.Printf("ogsalint/%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: ogsalint packages... | ogsalint unit.cfg")
		os.Exit(2)
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runUnit(args[0]))
	}
	os.Exit(runStandalone(args, *jsonOut, *baselinePath))
}

// jsonFinding is one finding in -json output and in baseline files.
// File paths are relative to the invocation directory so baselines
// survive checkouts at different absolute paths.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// baselineKey identifies a finding across line drift: file, analyzer,
// and message — not line numbers, which move with every edit above.
func (f jsonFinding) baselineKey() string {
	return f.File + "\x00" + f.Analyzer + "\x00" + f.Message
}

func toJSONFinding(cwd string, d lint.Diagnostic) jsonFinding {
	file := d.Pos.Filename
	if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = rel
	}
	return jsonFinding{
		File:       file,
		Line:       d.Pos.Line,
		Col:        d.Pos.Column,
		Analyzer:   strings.TrimPrefix(d.Check, "ogsalint/"),
		Message:    d.Message,
		Suppressed: d.Suppressed,
	}
}

func loadBaseline(path string) (map[string]int, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []jsonFinding
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("parse baseline %s: %w", path, err)
	}
	seen := map[string]int{}
	for _, f := range entries {
		if f.Suppressed {
			continue
		}
		seen[f.baselineKey()]++
	}
	return seen, nil
}

// applyBaseline drops findings claimed by the baseline multiset; a nil
// baseline keeps everything. Each baseline entry absorbs one finding,
// so a file that gains a second identical message still gates.
func applyBaseline(cwd string, diags []lint.Diagnostic, baseline map[string]int) []lint.Diagnostic {
	if baseline == nil {
		return diags
	}
	var out []lint.Diagnostic
	for _, d := range diags {
		key := toJSONFinding(cwd, d).baselineKey()
		if baseline[key] > 0 {
			baseline[key]--
			continue
		}
		out = append(out, d)
	}
	return out
}

func runStandalone(patterns []string, jsonOut bool, baselinePath string) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ogsalint:", err)
		return 2
	}
	pkgs, err := lint.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ogsalint:", err)
		return 2
	}
	exit := 0
	var targets []*lint.Package
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.ImportPath, "/lint/testdata") {
			continue
		}
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "ogsalint: %s: type error: %v\n", pkg.ImportPath, terr)
			exit = 2
		}
		targets = append(targets, pkg)
	}

	// One Program over the whole load: summaries resolve across
	// package boundaries, so a helper in internal/xmlutil is seen
	// through from internal/wsn.
	prog := lint.NewProgram(targets)
	var all []lint.Diagnostic
	for _, pkg := range targets {
		diags, err := prog.RunPackage(pkg, lint.Analyzers())
		if err != nil {
			fmt.Fprintln(os.Stderr, "ogsalint:", err)
			return 2
		}
		all = append(all, diags...)
	}

	baseline, err := loadBaseline(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ogsalint:", err)
		return 2
	}

	// The gating set: unsuppressed findings not claimed by the baseline.
	gating := applyBaseline(cwd, lint.FilterSuppressed(all), baseline)
	if len(gating) > 0 && exit == 0 {
		exit = 1
	}

	if jsonOut {
		// Without a baseline the array is the full inventory (usable
		// as a future baseline); with one, it is just the new findings.
		out := gating
		if baseline == nil {
			out = all
		}
		findings := make([]jsonFinding, 0, len(out))
		for _, d := range out {
			findings = append(findings, toJSONFinding(cwd, d))
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "ogsalint:", err)
			return 2
		}
		return exit
	}
	for _, d := range gating {
		fmt.Fprintln(os.Stderr, d)
	}
	return exit
}

// unitConfig is the subset of the go command's vet config the driver
// needs (the same JSON shape x/tools' unitchecker reads).
type unitConfig struct {
	ID          string
	Dir         string
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	VetxOnly    bool
	VetxOutput  string
}

func runUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ogsalint:", err)
		return 2
	}
	var cfg unitConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "ogsalint: parse vet config:", err)
		return 2
	}
	// The go command expects a facts file regardless; the suite keeps
	// no cross-package facts, so an empty one satisfies the protocol.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("ogsalint"), 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "ogsalint:", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	pkg := &lint.Package{ImportPath: cfg.ImportPath, Dir: cfg.Dir, Fset: fset}
	for _, name := range cfg.GoFiles {
		// Production-code suite: generated test-binary units include
		// _test.go files, which legitimately hand-build XML payloads
		// and discard errors.
		if strings.HasSuffix(filepath.Base(name), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ogsalint:", err)
			return 2
		}
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		return 0
	}

	lookup := func(path string) (io.ReadCloser, error) {
		if canonical, ok := cfg.ImportMap[path]; ok {
			path = canonical
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Error:    func(error) {}, // keep checking; partial info is fine
	}
	pkg.Types, _ = conf.Check(cfg.ImportPath, fset, pkg.Files, pkg.Info)

	diags, err := lint.Run(pkg, lint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "ogsalint:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
