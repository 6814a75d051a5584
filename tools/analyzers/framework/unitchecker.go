package framework

import (
	"crypto/sha256"
	"encoding/json"
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
)

// vetConfig mirrors the JSON the go command writes to $WORK/.../vet.cfg
// before invoking a -vettool binary (cmd/go/internal/work.vetConfig).
// Field names must match exactly; unknown fields are ignored on both
// sides, so this stays compatible across toolchain versions.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	GoVersion                 string
	SucceedOnTypecheckFailure bool
}

// jsonFlag is the flag description the go command decodes from the
// tool's `-flags` output (cmd/go/internal/vet reads Name/Bool/Usage).
// Flags advertised here become `go vet` command-line flags and are
// forwarded back to the tool ahead of the vet.cfg argument.
type jsonFlag struct {
	Name  string
	Bool  bool
	Usage string
}

var toolFlags = []jsonFlag{
	{Name: "run", Bool: false, Usage: "comma-separated analyzer names to run (default: all registered)"},
	{Name: "json", Bool: true, Usage: "emit diagnostics as one JSON object per package on stdout"},
}

// options are the per-invocation settings parsed from forwarded flags.
type options struct {
	run  string
	json bool
}

func parseOptions(args []string) (options, string) {
	var opts options
	var cfgPath string
	for _, a := range args {
		switch {
		case strings.HasPrefix(a, "-run="):
			opts.run = strings.TrimPrefix(a, "-run=")
		case a == "-json", a == "-json=true":
			opts.json = true
		case a == "-json=false":
			opts.json = false
		case strings.HasSuffix(a, ".cfg"):
			cfgPath = a
		}
	}
	return opts, cfgPath
}

// selectAnalyzers filters the registered analyzers by the -run list.
func selectAnalyzers(all []*Analyzer, run string) ([]*Analyzer, error) {
	if run == "" {
		return all, nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(run, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (registered: %s)", name, analyzerNames(all))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-run selected no analyzers")
	}
	return out, nil
}

func analyzerNames(all []*Analyzer) string {
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// Main is the entry point for a vettool binary: it speaks the protocol
// the go command expects from `go vet -vettool=<bin>`.
//
//   - `<bin> -V=full` must print "<name> version <ver>" so the go
//     command can derive a cache-busting tool ID. The version embeds a
//     hash of the tool binary itself: rebuilding the tool with changed
//     analyzer semantics must evict stale clean verdicts, and a fixed
//     version string would not.
//   - `<bin> -flags` prints the tool's flag descriptions as JSON; the
//     go command registers them as `go vet` flags and forwards them.
//   - Otherwise the last argument is the path to a vet.cfg JSON file
//     describing one package unit. The tool type-checks the unit
//     against the export data the go command already built (ImportMap
//   - PackageFile), merges the dependencies' fact files
//     (PackageVetx), runs the analyzers, writes this unit's facts to
//     VetxOutput, prints findings as "file:line:col: message" on
//     stderr (or JSON on stdout with -json) and exits 2 if there were
//     any. Units marked VetxOnly are dependencies being vetted for
//     their facts alone: in-module units are analyzed with diagnostics
//     suppressed; out-of-module units (the standard library) export an
//     empty fact set without analysis, since every fact the analyzers
//     need about the standard library is built in.
func Main(analyzers ...*Analyzer) {
	name := filepath.Base(os.Args[0])
	if len(os.Args) == 2 && os.Args[1] == "-V=full" {
		fmt.Printf("%s version 2.0-%s\n", strings.TrimSuffix(name, ".exe"), selfHash())
		return
	}
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		out, err := json.Marshal(toolFlags)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		return
	}
	opts, cfgPath := parseOptions(os.Args[1:])
	if cfgPath == "" {
		fmt.Fprintf(os.Stderr, "usage: %s [-run=a,b] [-json] vet.cfg  (invoked by `go vet -vettool=%s`)\n", name, name)
		fmt.Fprintf(os.Stderr, "registered analyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, firstLine(a.Doc))
		}
		os.Exit(1)
	}
	selected, err := selectAnalyzers(analyzers, opts.run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
	unit, err := runUnit(cfgPath, selected)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
	if opts.json {
		emitJSON(unit)
	} else {
		for _, d := range unit.diags {
			fmt.Fprintf(os.Stderr, "%s: %s\n", unit.fset.Position(d.Pos), d.String())
		}
	}
	if len(unit.diags) > 0 {
		os.Exit(2)
	}
}

// selfHash returns a short content hash of the running binary, making
// the tool ID — and therefore the go command's vet result cache key —
// track the binary's actual behavior.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:12]
}

// jsonDiagnostic is the -json wire form of one finding.
type jsonDiagnostic struct {
	Analyzer string `json:"analyzer"`
	Rule     string `json:"rule,omitempty"`
	Posn     string `json:"posn"`
	Message  string `json:"message"`
}

func emitJSON(unit *unitResult) {
	out := struct {
		Package     string           `json:"package"`
		Diagnostics []jsonDiagnostic `json:"diagnostics"`
	}{Package: unit.importPath, Diagnostics: []jsonDiagnostic{}}
	for _, d := range unit.diags {
		out.Diagnostics = append(out.Diagnostics, jsonDiagnostic{
			Analyzer: d.Analyzer,
			Rule:     d.Rule,
			Posn:     unit.fset.Position(d.Pos).String(),
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

type unitResult struct {
	importPath string
	diags      []Diagnostic
	fset       *token.FileSet
}

// inModule reports whether the unit belongs to the module being vetted
// (as opposed to the standard library or another dependency module).
// Only in-module units are analyzed for facts in VetxOnly mode: the
// analyzers model the standard library intrinsically and must not pay
// for (or depend on) type-checking it.
func (cfg *vetConfig) inModule() bool {
	return cfg.ModulePath != "" &&
		(cfg.ImportPath == cfg.ModulePath || strings.HasPrefix(cfg.ImportPath, cfg.ModulePath+"/"))
}

func runUnit(cfgPath string, analyzers []*Analyzer) (*unitResult, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", cfgPath, err)
	}
	res := &unitResult{importPath: cfg.ImportPath, fset: token.NewFileSet()}

	// Out-of-module fact-only units (the standard library, other
	// modules): nothing to analyze, write an empty fact set so the go
	// command can cache it.
	if cfg.VetxOnly && !cfg.inModule() {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
				return nil, err
			}
		}
		return res, nil
	}

	facts := NewFactSet()
	for _, vetx := range cfg.PackageVetx {
		if err := facts.MergeFile(vetx); err != nil {
			return nil, err
		}
	}

	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(res.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				os.Exit(0)
			}
			return nil, err
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(res.fset, compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	tc := &types.Config{
		Importer: imp,
		Sizes:    types.SizesFor(compiler, "amd64"),
		Error:    func(error) {}, // collect via the Check return, not per-error
	}
	if v := cfg.GoVersion; strings.HasPrefix(v, "go") {
		tc.GoVersion = v
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, err := tc.Check(cfg.ImportPath, res.fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			os.Exit(0)
		}
		return nil, fmt.Errorf("typechecking %s: %w", cfg.ImportPath, err)
	}

	diags, err := Analyze(cfg.ImportPath, res.fset, files, pkg, info, facts, analyzers...)
	if err != nil {
		return nil, err
	}

	if cfg.VetxOutput != "" {
		encoded, err := facts.Encode()
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(cfg.VetxOutput, encoded, 0o666); err != nil {
			return nil, err
		}
	}
	// Fact-only dependency units report nothing: their diagnostics are
	// owned by the vet run that names them directly.
	if !cfg.VetxOnly {
		res.diags = diags
	}
	return res, nil
}
