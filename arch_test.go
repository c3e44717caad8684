package mrskyline_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestArchitecture holds the "one X" invariants of the tree: what a past
// simplification reduced to one place must stay in one place. Each row is
// a named subtest with its reason. The rows read syntax, not text: every
// Go file of the module outside bench/ is parsed once, without comments,
// and a row matches identifiers, selectors, call sites, declarations,
// composite literals, imports or string literals. A banned name in a
// comment fails nothing. The rows resolve no types, so a name is matched
// wherever it appears as an identifier.
func TestArchitecture(t *testing.T) {
	tree := parseTree(t)
	nonTest := tree.where(func(f goFile) bool { return !f.test })
	rootSrc := nonTest.where(inDir("."))
	for _, row := range []struct {
		name, why string
		check     func() []string
	}{
		{
			"No bench JSON writer outside bench/",
			"Performance is measured in one place, bench/ (see BENCHMARK.json). " +
				"A BENCH_*.json writer anywhere else is a second, ungated instrument.",
			func() []string { return tree.stringsContaining("BENCH_") },
		},
		{
			"No second job runner in rpcexec",
			"A job's lifecycle — attempt budget, failure and node-death counters, task records, " +
				"the Result — is written once, in internal/mapreduce. rpcexec is its fleet: " +
				"transport, liveness and the data plane.",
			func() []string {
				rpc := nonTest.where(inDir("internal/rpcexec"))
				return join(
					rpc.idents("CounterTaskFailures", "CounterNodeFailures"),
					rpc.identsMatching(regexp.MustCompile(`[mM]axAttempts`)),
					rpc.compositeLits("TaskRecord", "mapreduce.Result"),
				)
			},
		},
		{
			"One record layer",
			"How a record is held, sorted, framed, hashed and bounds-checked is written once, " +
				"in internal/frame. The formats over it (SKYRUN1, SKYWAL1, SKYSNAP, the wire " +
				"segment) hash through frame.Hash and never parse a length prefix themselves.",
			func() []string {
				internal := tree.where(under("internal"))
				formats := tree.where(inDir("internal/spill", "internal/wal"), isFile("internal/mapreduce/kinds.go", "internal/mapreduce/segment.go"))
				codecs := tree.where(isFile("internal/spill/run.go", "internal/wal/segment.go", "internal/mapreduce/kinds.go"))
				return join(
					formats.imports("hash/fnv"),
					exactly(1, "func keyPrefix", internal.funcDecls(regexp.MustCompile(`^keyPrefix$`))),
					exactly(1, "type arenaRec", internal.typeDecls("arenaRec")),
					exactly(1, "func …[sS]ortedIndex", internal.funcDecls(regexp.MustCompile(`[sS]ortedIndex$`))),
					codecs.calls("binary.Uvarint", "binary.PutUvarint", "ReadUvarint"),
				)
			},
		},
		{
			"One input path",
			"A job's input is in-memory binary tuple splits and nothing else: no simulated file " +
				"system, no text decoder inside mappers, no placement preference that only file " +
				"blocks fed, no MR-Bitmap.",
			func() []string {
				var found []string
				if _, err := os.Stat("internal/dfs"); err == nil {
					found = append(found, "internal/dfs exists")
				}
				return join(found,
					tree.idents("DecodeRecord", "FromInput", "DFSLineInput", "LocalityHits", "Preferred", "MRBitmap", "ResetMetrics"),
					tree.calls("Hosts"),
					tree.stringsContaining("via-dfs"),
				)
			},
		},
		{
			"One job 1",
			"Job 1 is one job: a fixed PPD runs the Section 3.3 job with itself as the one " +
				"candidate, so there is no Algorithms 1–2 job beside it, no kind for one, and no " +
				"knob that reshapes the candidate series.",
			func() []string {
				return nonTest.idents("BuildBitstring", "KindBitstringGen", "newBitstringMapper", "bitstringSpec", "MaxPPDCandidates", "scratchDecoder")
			},
		},
		{
			"One skyline job",
			"MR-GPSRS is the skyline job of MR-GPMRS with one bucket: one mapper, one reducer, " +
				"one JobFuncs constructor and one kind serve both, so internal/core registers " +
				"two kinds, job 1's and the skyline job's.",
			func() []string {
				return join(
					nonTest.idents("gpsrsFuncs", "newGPSRSReducer", "newGPMapper", "KindGPSRS", "buildGPSRSKind"),
					exactly(2, "RegisterKind call", nonTest.where(inDir("internal/core")).calls("RegisterKind")),
				)
			},
		},
		{
			"One input pass: the rows are the job input",
			"A grid query's rows reach job 1 in one pass (core.EncodeRows): one row check, one " +
				"orientation, one bounds fold widened by the rule grid.DataBounds also applies. The " +
				"job input is the caller's rows (mapreduce.TupleRows), or one oriented copy of them; " +
				"nothing encodes a dataset before a job reads it. core.Prepare checks no row again, " +
				"and no query builds a Record per tuple.",
			func() []string {
				return join(
					nonTest.idents("TupleArena", "NewTupleArena", "EncodeTuples"),
					tree.where(isFile("internal/core/input.go")).calls("tuple.AppendEncode", "tuple.Encode"),
					tree.where(isFile("internal/core/plan.go")).calls("Validate"),
					nonTest.where(inDir(".", "internal/core")).calls("TupleInput"),
					exactly(1, "WidenBounds call in DataBounds", tree.where(isFile("internal/grid/grid.go")).callsInFunc("DataBounds", "WidenBounds")),
					exactly(1, "WidenBounds call in EncodeRows", tree.where(isFile("internal/core/input.go")).callsInFunc("EncodeRows", "WidenBounds")),
				)
			},
		},
		{
			"One map body per grid mapper",
			"Job 1's mapper and the skyline job's each read a split in one loop over its rows " +
				"(mapreduce.RowsMapper); a split of records reaches that loop decoded once into rows. " +
				"A per-record decode beside it would be a second map body to keep in step.",
			func() []string {
				core := nonTest.where(inDir("internal/core"))
				return join(core.calls("DecodeInto"), core.methodDecls("localState", "add"))
			},
		},
		{
			"One query path",
			"A skyline query is written once, in the Dataset handle: the package-level functions " +
				"and Service.Compute only wrap it, skylined hands it every source of rows, and " +
				"skylined decodes a request body in one place, which caps its size.",
			func() []string {
				found := join(
					nonTest.where(inDir(".", "cmd/*")).idents("adhocRows", "querier", "SegmentBytes"),
					rootSrc.methodDecls("Service", "ComputeConstrained", "ComputeSubspace"),
					exactly(1, "json.NewDecoder call in cmd/skylined", nonTest.where(inDir("cmd/skylined")).calls("json.NewDecoder")),
				)
				for _, fn := range []string{"filterConstrained", "projectSubspace", "queryCtx"} {
					found = append(found, exactly(1, fn+" call site", rootSrc.calls(fn))...)
				}
				return found
			},
		},
		{
			"Serving surface",
			"What is served is what a caller reaches: SKY-MR and D&C run only in the figures " +
				"(internal/baseline, core.Config), MR-SFS nowhere, and the engine and fleet keep " +
				"no hook that only a test sets.",
			func() []string {
				return join(
					rootSrc.idents("MRSFS", "SKYMR", "KernelDC"),
					nonTest.idents("NewCombiner", "CombinerFunc", "InADR", "TraceDir", "SpillFanIn", "workerEnvTrace"),
				)
			},
		},
		{
			"No per-call registry path, no span log in Service",
			"The serve path pays per request only for the request: windows do not publish to the " +
				"metrics registry per call, and a Service keeps no span log.",
			func() []string {
				return join(
					tree.where(isFile("internal/skyline/window/window.go")).idents("Instrument"),
					tree.where(isFile("serve.go")).calls("obs.New"),
				)
			},
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			if found := row.check(); len(found) > 0 {
				t.Errorf("%s\n%s", strings.Join(found, "\n"), row.why)
			}
		})
	}
}

// goFile is one parsed Go file; path is slash-separated and relative to the
// module root.
type goFile struct {
	path string
	test bool
	ast  *ast.File
	fset *token.FileSet
}

// goFiles is a set of parsed files a row queries. Every query returns one
// "path:line: what" entry per match.
type goFiles []goFile

// parseTree parses every Go file of the module outside bench/ (its own
// module, a fixed instrument) and testdata/, except this one.
func parseTree(t *testing.T) goFiles {
	t.Helper()
	fset := token.NewFileSet()
	var out goFiles
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || p == "arch_test.go" {
			return nil // this file names the banned words as data
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		out = append(out, goFile{path: filepath.ToSlash(p), test: strings.HasSuffix(name, "_test.go"), ast: f, fset: fset})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func (files goFiles) where(keep ...func(goFile) bool) goFiles {
	var out goFiles
	for _, f := range files {
		for _, k := range keep {
			if k(f) {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

// inDir keeps the files directly in one of dirs; a dir may be a path.Match
// pattern, and "." is the module root.
func inDir(dirs ...string) func(goFile) bool {
	return func(f goFile) bool {
		for _, d := range dirs {
			if ok, _ := path.Match(d, path.Dir(f.path)); ok {
				return true
			}
		}
		return false
	}
}

// under keeps the files anywhere below dir.
func under(dir string) func(goFile) bool {
	return func(f goFile) bool { return strings.HasPrefix(f.path, dir+"/") }
}

func isFile(paths ...string) func(goFile) bool {
	return func(f goFile) bool {
		for _, p := range paths {
			if f.path == p {
				return true
			}
		}
		return false
	}
}

// matcher names what a node is when it matches.
type matcher func(n ast.Node) (what string, ok bool)

// inspect walks every file of files, reporting each match.
func (files goFiles) inspect(fn matcher) []string {
	var found []string
	for _, f := range files {
		found = append(found, f.inspect(f.ast, fn)...)
	}
	return found
}

// inspect walks the tree under root, a node of f, reporting each match.
func (f goFile) inspect(root ast.Node, fn matcher) []string {
	var found []string
	ast.Inspect(root, func(n ast.Node) bool {
		if what, ok := fn(n); ok {
			found = append(found, fmt.Sprintf("%s:%d: %s", f.path, f.fset.Position(n.Pos()).Line, what))
		}
		return true
	})
	return found
}

// idents finds every identifier named one of names, selectors' included.
func (files goFiles) idents(names ...string) []string {
	return files.inspect(func(n ast.Node) (string, bool) {
		id, ok := n.(*ast.Ident)
		return id.String(), ok && slices.Contains(names, id.Name)
	})
}

func (files goFiles) identsMatching(re *regexp.Regexp) []string {
	return files.inspect(func(n ast.Node) (string, bool) {
		id, ok := n.(*ast.Ident)
		return id.String(), ok && re.MatchString(id.Name)
	})
}

// calls finds every call of one of callees: "Name" matches a call of a
// function or method by that name, "pkg.Name" only the qualified call.
func (files goFiles) calls(callees ...string) []string { return files.inspect(callOf(callees)) }

func callOf(callees []string) matcher {
	return func(n ast.Node) (string, bool) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return "", false
		}
		name, qualified := calleeName(call.Fun)
		return "call of " + qualified, slices.Contains(callees, name) || slices.Contains(callees, qualified)
	}
}

// callsInFunc finds the calls of callee inside the body of the top-level
// function fn.
func (files goFiles) callsInFunc(fn, callee string) []string {
	var found []string
	for _, f := range files {
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == fn && fd.Body != nil {
				found = append(found, f.inspect(fd.Body, callOf([]string{callee}))...)
			}
		}
	}
	return found
}

// calleeName returns a call target's bare name and, for a selector on an
// identifier, its qualified "x.Name".
func calleeName(fun ast.Expr) (name, qualified string) {
	switch e := fun.(type) {
	case *ast.Ident:
		return e.Name, e.Name
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			return e.Sel.Name, x.Name + "." + e.Sel.Name
		}
		return e.Sel.Name, e.Sel.Name
	case *ast.IndexExpr: // a generic instantiation
		return calleeName(e.X)
	case *ast.IndexListExpr:
		return calleeName(e.X)
	}
	return "", ""
}

// compositeLits finds composite literals of one of the named types ("T" or
// "pkg.T", as in calls).
func (files goFiles) compositeLits(types ...string) []string {
	return files.inspect(func(n ast.Node) (string, bool) {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return "", false
		}
		name, qualified := calleeName(lit.Type)
		return qualified + "{…}", slices.Contains(types, name) || slices.Contains(types, qualified)
	})
}

func (files goFiles) funcDecls(re *regexp.Regexp) []string {
	return files.inspect(func(n ast.Node) (string, bool) {
		fd, ok := n.(*ast.FuncDecl)
		if !ok {
			return "", false
		}
		return "func " + fd.Name.Name, re.MatchString(fd.Name.Name)
	})
}

// methodDecls finds the methods named one of names on recv or *recv.
func (files goFiles) methodDecls(recv string, names ...string) []string {
	return files.inspect(func(n ast.Node) (string, bool) {
		fd, ok := n.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 {
			return "", false
		}
		typ := fd.Recv.List[0].Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		id, ok := typ.(*ast.Ident)
		return "func (" + recv + ") " + fd.Name.Name, ok && id.Name == recv && slices.Contains(names, fd.Name.Name)
	})
}

func (files goFiles) typeDecls(name string) []string {
	return files.inspect(func(n ast.Node) (string, bool) {
		ts, ok := n.(*ast.TypeSpec)
		return "type " + name, ok && ts.Name.Name == name
	})
}

func (files goFiles) imports(importPath string) []string {
	return files.inspect(func(n ast.Node) (string, bool) {
		is, ok := n.(*ast.ImportSpec)
		if !ok {
			return "", false
		}
		p, err := strconv.Unquote(is.Path.Value)
		return "import " + importPath, err == nil && p == importPath
	})
}

func (files goFiles) stringsContaining(sub string) []string {
	return files.inspect(func(n ast.Node) (string, bool) {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(lit.Value)
		return lit.Value, err == nil && strings.Contains(s, sub)
	})
}

// exactly turns "want n of what" into a finding when found has another
// length, listing what it found.
func exactly(n int, what string, found []string) []string {
	if len(found) == n {
		return nil
	}
	return append([]string{fmt.Sprintf("want %d %s, found %d:", n, what, len(found))}, found...)
}

func join(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}
