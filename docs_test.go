package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestDocsCiteExistingCode keeps the user docs (README, DESIGN,
// EXPERIMENTS and docs/*.md) from citing what the code no longer has. Every
// backticked item of a checkable kind must still exist:
//
//   - a -flag must be defined by a command under cmd/ (or by the benchmark
//     in benchmark/), or be one of the few go tool flags the docs use; a
//     flag cited for a command — in a span that starts with the command
//     (`qss -admin ADDR`, `cmd/qss -waldir`), or in a sentence that names
//     commands as `cmd/X` — must be defined by each command named, and
//     the flags of a sentence naming no command by one command together;
//   - a REPRO_* name must be read by non-test code;
//   - `make TARGET` must name a Makefile target;
//   - a repo path (dir/file, or a bare file name) must exist;
//   - pkg.Ident or pkg.Type.Member must be declared in non-test code of
//     internal/pkg (members: methods, struct fields, interface methods);
//   - a metric-shaped name — snake_case whose first word is the subsystem
//     of some registered obs metric, optionally with a {label="v"} suffix —
//     must be registered by non-test code.
//
// The other top-level markdown files are history or source material and
// are not scanned, nor is benchmark/README.md.
func TestDocsCiteExistingCode(t *testing.T) {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, docs...)
	k := loadCodeFacts(t)
	checked := 0
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpans(string(text)) {
			for _, problem := range k.check(span) {
				t.Errorf("%s: `%s`: %s", doc, span, problem)
			}
			checked++
		}
		for _, problem := range k.checkAttributed(string(text)) {
			t.Errorf("%s: %s", doc, problem)
		}
	}
	if checked < 500 {
		t.Errorf("only %d code spans scanned; the scanner is not reading the docs", checked)
	}
}

// TestDocsCoverCode is the other direction: the user docs must not fall
// silent about what the code offers. Every flag a command under cmd/
// defines must be cited backticked in README.md or docs/*.md, and every
// metric registered with obs.NewCounter, obs.NewGauge, obs.NewHistogram or
// obs.RegisterGaugeFunc must be named in some docs/*.md.
func TestDocsCoverCode(t *testing.T) {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	k := loadCodeFacts(t)
	cited := map[string]bool{}
	var metricText strings.Builder
	for _, doc := range append([]string{"README.md"}, docs...) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpans(string(text)) {
			for _, tok := range strings.Fields(span) {
				if m := flagToken.FindStringSubmatch(tok); m != nil {
					cited[m[1]] = true
				}
			}
		}
		if doc != "README.md" {
			metricText.Write(text)
			metricText.WriteByte('\n')
		}
	}
	if len(k.cmdFlags) < 5 || len(k.metrics) < 50 {
		t.Fatalf("scanned %d commands and %d metrics; the scanner is not reading the code", len(k.cmdFlags), len(k.metrics))
	}
	for _, cmd := range sortedKeys(k.cmdFlags) {
		if cmd == "benchmark" {
			continue // documented in benchmark/README.md
		}
		for _, f := range sortedKeys(k.cmdFlags[cmd]) {
			if !cited[f] {
				t.Errorf("cmd/%s defines -%s, which no README.md or docs/*.md code span cites", cmd, f)
			}
		}
	}
	for _, name := range sortedKeys(k.metrics) {
		if !regexp.MustCompile(`\b` + name + `\b`).MatchString(metricText.String()) {
			t.Errorf("metric %s is registered but named in no docs/*.md", name)
		}
	}
}

// TestExperimentsCiteTests keeps EXPERIMENTS.md a map from each paper
// figure, worked example, extension and quantitative series to the code
// that reproduces it: every table row whose id is F*, Q*, X* or B* must
// cite at least one backticked Test*, Benchmark* or Fuzz* name, and every
// name it cites must be declared by a _test.go file of the main module.
func TestExperimentsCiteTests(t *testing.T) {
	k := loadCodeFacts(t)
	text, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, line := range strings.Split(string(text), "\n") {
		m := experimentRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		rows++
		var cited []string
		for _, span := range codeSpans(line) {
			cited = append(cited, testFuncName.FindAllString(span, -1)...)
		}
		if len(cited) == 0 {
			t.Errorf("EXPERIMENTS.md: %s cites no test, benchmark or fuzz target", m[1])
		}
		for _, name := range cited {
			if !k.testFuncs[name] {
				t.Errorf("EXPERIMENTS.md: %s cites %s, which no _test.go file declares", m[1], name)
			}
		}
	}
	if rows < 25 || len(k.testFuncs) < 500 {
		t.Errorf("read %d EXPERIMENTS.md rows and %d test functions; the scanner is not reading them", rows, len(k.testFuncs))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

var (
	fencedBlock = regexp.MustCompile("(?s)```.*?```")
	codeSpan    = regexp.MustCompile("`([^`\n]+)`")
	flagToken   = regexp.MustCompile(`^--?([A-Za-z][\w-]*)(=.*)?$`)
	reproName   = regexp.MustCompile(`REPRO_[A-Z_]+`)
	makeCall    = regexp.MustCompile(`^make\s+([\w.-]+)`)
	pkgIdent    = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?(?:\(.*\))?$`)
	bareFile    = regexp.MustCompile(`^[\w.-]+\.(go|md|json|yml|sh|mod)$`)
	lineSuffix  = regexp.MustCompile(`:\d+(-\d+)?$`)
	metricShape = regexp.MustCompile(`^[a-z][a-z0-9]*(?:_[a-z0-9]+)+$`)
	metricLabel = regexp.MustCompile(`\{.*\}$`)

	flagDef   = regexp.MustCompile(`flag\.\w+\(\s*"([\w-]+)"|flag\.\w*Var\([^,]+,\s*"([\w-]+)"`)
	metricDef = regexp.MustCompile(`\b(?:New(?:Counter|Gauge|Histogram)|RegisterGaugeFunc)\(\s*(?:obs\.LabeledName\(\s*)?"(\w+)"`)
	cmdSpan   = regexp.MustCompile(`^(?:cmd/)?([a-z]+)$`)
	sentence  = regexp.MustCompile(`[.!?](?:\s|$)`)
	reproRead = regexp.MustCompile(`"(REPRO_[A-Z_]+)"`)
	makeRule  = regexp.MustCompile(`(?m)^([\w.-]+):`)

	experimentRow = regexp.MustCompile(`^\|\s*([FQXB]\d+[a-z]?)\s*\|`)
	testFuncName  = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9]\w*`)
	testFuncDef   = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Z0-9]\w*)\(`)
)

// goToolFlags are the go command and linker flags the docs cite.
var goToolFlags = map[string]bool{"race": true, "bench": true, "benchmem": true, "run": true, "X": true}

// codeSpans returns the inline code spans of a markdown text, outside
// fenced blocks.
func codeSpans(text string) []string {
	var spans []string
	for _, m := range codeSpan.FindAllStringSubmatch(fencedBlock.ReplaceAllString(text, ""), -1) {
		spans = append(spans, m[1])
	}
	return spans
}

// codeFacts is what the docs may cite.
type codeFacts struct {
	flags, repro, targets map[string]bool
	paths, baseNames      map[string]bool
	decls                 map[string]map[string]bool // internal package -> Ident and Type.Member
	cmdFlags              map[string]map[string]bool // command under cmd/ (or "benchmark") -> its flags
	metrics               map[string]bool            // registered obs metric names
	subsystems            map[string]bool            // first words of the metric names
	testFuncs             map[string]bool            // Test*, Benchmark* and Fuzz* functions of the main module
}

func loadCodeFacts(t *testing.T) *codeFacts {
	t.Helper()
	k := &codeFacts{
		flags: map[string]bool{}, repro: map[string]bool{}, targets: map[string]bool{},
		paths: map[string]bool{}, baseNames: map[string]bool{}, decls: map[string]map[string]bool{},
		cmdFlags: map[string]map[string]bool{}, metrics: map[string]bool{}, subsystems: map[string]bool{},
		testFuncs: map[string]bool{},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == ".git" {
			if err == nil {
				err = filepath.SkipDir
			}
			return err
		}
		k.paths[filepath.ToSlash(path)] = true
		k.baseNames[d.Name()] = true
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			if !strings.HasPrefix(filepath.ToSlash(path), "benchmark/") { // a module of its own
				for _, m := range testFuncDef.FindAllStringSubmatch(string(src), -1) {
					k.testFuncs[m[1]] = true
				}
			}
			return nil
		}
		for _, m := range reproRead.FindAllStringSubmatch(string(src), -1) {
			k.repro[m[1]] = true
		}
		for _, m := range metricDef.FindAllStringSubmatch(string(src), -1) {
			k.metrics[m[1]] = true
			subsystem, _, _ := strings.Cut(m[1], "_")
			k.subsystems[subsystem] = true
		}
		if dir := filepath.ToSlash(filepath.Dir(path)); strings.HasPrefix(dir, "cmd/") || dir == "benchmark" {
			cmd := strings.TrimPrefix(dir, "cmd/")
			if k.cmdFlags[cmd] == nil {
				k.cmdFlags[cmd] = map[string]bool{}
			}
			for _, m := range flagDef.FindAllStringSubmatch(string(src), -1) {
				k.flags[m[1]+m[2]] = true
				k.cmdFlags[cmd][m[1]+m[2]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range makeRule.FindAllStringSubmatch(string(mk), -1) {
		k.targets[m[1]] = true
	}
	return k
}

// declared reports whether internal/pkg declares name ("Ident" or
// "Type.Member"), parsing the package on first use; ok is false when
// internal/pkg does not exist.
func (k *codeFacts) declared(pkg, name string) (found, ok bool) {
	decls, seen := k.decls[pkg]
	if !seen {
		decls = parseDecls("internal/" + pkg)
		k.decls[pkg] = decls
	}
	return decls[name], decls != nil
}

// parseDecls collects a package directory's top-level declarations and
// their members; nil when dir holds no Go package.
func parseDecls(dir string) map[string]bool {
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil || len(pkgs) == 0 {
		return nil
	}
	decls := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						decls[d.Name.Name] = true
						continue
					}
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						decls[id.Name+"."+d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.ValueSpec:
							for _, n := range s.Names {
								decls[n.Name] = true
							}
						case *ast.TypeSpec:
							decls[s.Name.Name] = true
							var fields *ast.FieldList
							switch ty := s.Type.(type) {
							case *ast.StructType:
								fields = ty.Fields
							case *ast.InterfaceType:
								fields = ty.Methods
							}
							if fields == nil {
								continue
							}
							for _, fl := range fields.List {
								for _, n := range fl.Names {
									decls[s.Name.Name+"."+n.Name] = true
								}
							}
						}
					}
				}
			}
		}
	}
	return decls
}

// check returns what a code span cites that the code does not have.
func (k *codeFacts) check(span string) []string {
	var problems []string
	for _, tok := range strings.Fields(span) {
		if m := flagToken.FindStringSubmatch(tok); m != nil && !k.flags[m[1]] && !goToolFlags[m[1]] {
			problems = append(problems, "no command defines -"+m[1])
		}
	}
	for _, name := range reproName.FindAllString(span, -1) {
		if !k.repro[name] {
			problems = append(problems, "no non-test code reads "+name)
		}
	}
	if m := makeCall.FindStringSubmatch(span); m != nil && !k.targets[m[1]] {
		problems = append(problems, "the Makefile has no target "+m[1])
	}
	if name := metricLabel.ReplaceAllString(span, ""); metricShape.MatchString(name) {
		if subsystem, _, _ := strings.Cut(name, "_"); k.subsystems[subsystem] && !k.metrics[name] {
			problems = append(problems, "no non-test code registers metric "+name)
		}
	}
	if m := pkgIdent.FindStringSubmatch(span); m != nil {
		name := m[2]
		if m[3] != "" {
			name += "." + m[3]
		}
		if found, ok := k.declared(m[1], name); ok && !found {
			problems = append(problems, "internal/"+m[1]+" declares no "+name)
		}
	}
	if path := strings.TrimSuffix(lineSuffix.ReplaceAllString(span, ""), "/"); !strings.ContainsAny(path, " <>*…{}?") {
		if first, _, nested := strings.Cut(path, "/"); nested && k.paths[first] && !k.paths[path] {
			problems = append(problems, "no such path")
		} else if !nested && bareFile.MatchString(path) && !k.baseNames[path] {
			problems = append(problems, "no file of that name")
		}
	}
	return problems
}

// checkAttributed returns the flags a doc cites for a command that does not
// define them. A span starting with a command name attributes its flags to
// that command; otherwise, within one sentence, every standalone flag span
// is attributed to each command the sentence names as `cmd/X`, or, when
// the sentence names none, the flags must all belong to one command.
func (k *codeFacts) checkAttributed(text string) []string {
	var problems []string
	text = fencedBlock.ReplaceAllString(text, "")
	// Mask code spans so sentence ends are only found in prose.
	masked := []byte(text)
	spans := codeSpan.FindAllStringSubmatchIndex(text, -1)
	for _, sp := range spans {
		for i := sp[0]; i < sp[1]; i++ {
			masked[i] = 'x'
		}
	}
	ends := append(sentence.FindAllIndex(masked, -1), []int{len(text), len(text)})
	var cmds []string
	var flags []string
	flush := func() {
		for _, c := range cmds {
			for _, f := range flags {
				if !k.cmdFlags[c][f] {
					problems = append(problems, "`-"+f+"` is cited beside `cmd/"+c+"`, which does not define it")
				}
			}
		}
		if len(cmds) == 0 && len(flags) > 1 && !k.oneCommandDefines(flags) {
			problems = append(problems, "no one command defines all of -"+strings.Join(flags, ", -")+", cited in one sentence")
		}
		cmds, flags = nil, nil
	}
	next := 0
	for _, sp := range spans {
		for sp[0] >= ends[next][0] {
			flush()
			next++
		}
		fields := strings.Fields(text[sp[2]:sp[3]])
		if len(fields) == 0 {
			continue
		}
		if m := flagToken.FindStringSubmatch(fields[0]); m != nil {
			if !goToolFlags[m[1]] {
				flags = append(flags, m[1])
			}
			continue
		}
		m := cmdSpan.FindStringSubmatch(fields[0])
		if m == nil || k.cmdFlags[m[1]] == nil {
			continue
		}
		if len(fields) == 1 && strings.HasPrefix(fields[0], "cmd/") {
			cmds = append(cmds, m[1])
			continue
		}
		for _, tok := range fields[1:] {
			if f := flagToken.FindStringSubmatch(tok); f != nil && !k.cmdFlags[m[1]][f[1]] {
				problems = append(problems, "`"+text[sp[2]:sp[3]]+"`: "+m[1]+" does not define -"+f[1])
			}
		}
	}
	flush()
	return problems
}

// oneCommandDefines reports whether some command (or the benchmark)
// defines every flag named.
func (k *codeFacts) oneCommandDefines(flags []string) bool {
	for _, defined := range k.cmdFlags {
		all := true
		for _, f := range flags {
			all = all && defined[f]
		}
		if all {
			return true
		}
	}
	return false
}
