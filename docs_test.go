package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteExistingCode keeps the user docs (README, DESIGN,
// EXPERIMENTS and docs/*.md) from citing what the code no longer has. Every
// backticked item of a checkable kind must still exist:
//
//   - a -flag must be defined by a command under cmd/ (or by the benchmark
//     in benchmark/), or be one of the few go tool flags the docs use;
//   - a REPRO_* name must be read by non-test code;
//   - `make TARGET` must name a Makefile target;
//   - a repo path (dir/file, or a bare file name) must exist;
//   - pkg.Ident or pkg.Type.Member must be declared in non-test code of
//     internal/pkg (members: methods, struct fields, interface methods).
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
	}
	if checked < 500 {
		t.Errorf("only %d code spans scanned; the scanner is not reading the docs", checked)
	}
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

	flagDef   = regexp.MustCompile(`flag\.\w+\(\s*"([\w-]+)"|flag\.\w*Var\([^,]+,\s*"([\w-]+)"`)
	reproRead = regexp.MustCompile(`"(REPRO_[A-Z_]+)"`)
	makeRule  = regexp.MustCompile(`(?m)^([\w.-]+):`)
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
}

func loadCodeFacts(t *testing.T) *codeFacts {
	t.Helper()
	k := &codeFacts{
		flags: map[string]bool{}, repro: map[string]bool{}, targets: map[string]bool{},
		paths: map[string]bool{}, baseNames: map[string]bool{}, decls: map[string]map[string]bool{},
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
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range reproRead.FindAllStringSubmatch(string(src), -1) {
			k.repro[m[1]] = true
		}
		if dir := filepath.ToSlash(filepath.Dir(path)); strings.HasPrefix(dir, "cmd/") || dir == "benchmark" {
			for _, m := range flagDef.FindAllStringSubmatch(string(src), -1) {
				k.flags[m[1]+m[2]] = true
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
