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
				"knob that reshapes the candidate series. Its mappers stop locating on candidates " +
				"that can no longer win, so its answer is held to the per-candidate reference's on " +
				"every driver, with Ladder prefixes equal to the full locate, under the race detector " +
				"too (CI's Race step runs every test).",
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
			"The plan is data",
			"The driver forms a skyline job's buckets once (Plan.run: Algorithm 7's groups merged " +
				"down to r, or MR-GPSRS's one bucket) and the job's spec carries them, so no task " +
				"forms, merges or designates anything, on a worker process neither. Job 1's reducer " +
				"returns occupancy and the driver prunes it, so the ablation switches (Config.Merge, " +
				"Config.DisablePruning) never reach a job's spec.",
			func() []string {
				core := nonTest.where(inDir("internal/core"))
				return join(
					nonTest.idents("formBuckets", "bucketSlot", "OneBucket"),
					exactly(1, "MergeGroups call in internal/core", core.calls("MergeGroups")),
					exactly(1, "IndependentGroups call in internal/core", core.calls("IndependentGroups")),
					exactly(1, "Prune call in internal/core", core.calls("Prune")),
					exactly(1, "Prune call in ChoosePPDAndBitstring", core.callsInFunc("ChoosePPDAndBitstring", "Prune")),
					tree.where(isFile("internal/core/kinds.go")).idents("DisablePruning", "Merge"),
				)
			},
		},
		{
			"One input pass: the rows are the job input",
			"Every algorithm's rows reach its jobs in one pass (core.EncodeRows): one row check, " +
				"one orientation, one bounds fold widened by the rule grid.DataBounds also applies. The " +
				"job input is the caller's rows (mapreduce.TupleRows), or one oriented copy of them; " +
				"nothing encodes a dataset before a job reads it. core.Prepare and the baselines' rows " +
				"entries check no row again, no query builds a Record per tuple, and every mapper, grid " +
				"or baseline, reads its split as rows. The shuffle key of a partition id " +
				"(mapreduce.IntKey) and a task's per-partition windows (window.Map) are written once. " +
				"Under the race detector the pass, the rows input's splits and every query leaving the " +
				"caller's rows unwritten run in CI's Race step, which runs every test.",
			func() []string {
				jobs := nonTest.where(inDir("internal/core", "internal/baseline"))
				return join(
					nonTest.idents("TupleArena", "NewTupleArena", "EncodeTuples"),
					tree.idents("DecodeTupleRecord", "orientRows"),
					tree.where(isFile("internal/core/input.go")).calls("tuple.AppendEncode", "tuple.Encode"),
					tree.where(isFile("internal/core/plan.go")).calls("Validate"),
					nonTest.where(inDir(".", "internal/core", "internal/baseline")).calls("TupleInput"),
					exactly(1, "WidenBounds call in DataBounds", tree.where(isFile("internal/grid/grid.go")).callsInFunc("DataBounds", "WidenBounds")),
					exactly(1, "WidenBounds call in EncodeRows", tree.where(isFile("internal/core/input.go")).callsInFunc("EncodeRows", "WidenBounds")),
					nonTest.idents("encodeKey", "decodeKey", "winMap", "getWindow", "sortedWindows", "sortedPartitions"),
					jobs.idents("BigEndian"),
					exactly(1, "map of *Window", tree.mapsOf("Window")),
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
				"skylined reads a request body in one place, which caps its size and reads it once, " +
				"turns a body's number into a float64 in one place, the row reader's fillRow, " +
				"and leaves turning a float64 into response text to encoding/json.",
			func() []string {
				skylined := nonTest.where(inDir("cmd/skylined"))
				found := join(
					nonTest.where(inDir(".", "cmd/*")).idents("adhocRows", "querier", "SegmentBytes"),
					rootSrc.methodDecls("Service", "ComputeConstrained", "ComputeSubspace"),
					exactly(1, "json.NewDecoder call in cmd/skylined", skylined.calls("json.NewDecoder")),
					exactly(1, "http.MaxBytesReader call in cmd/skylined", skylined.calls("http.MaxBytesReader")),
					exactly(1, "io.ReadAll call in cmd/skylined", skylined.calls("io.ReadAll")),
					exactly(1, "strconv.ParseFloat call in cmd/skylined", skylined.calls("strconv.ParseFloat")),
					exactly(1, "strconv.ParseFloat call in fillRow", skylined.callsInFunc("fillRow", "strconv.ParseFloat")),
					skylined.calls("strconv.AppendFloat", "strconv.FormatFloat"),
				)
				for _, fn := range []string{"filterConstrained", "projectSubspace", "queryCtx"} {
					found = append(found, exactly(1, fn+" call site", rootSrc.calls(fn))...)
				}
				return found
			},
		},
		{
			"Serving surface",
			"What is served is what a caller reaches: MR-SFS nowhere, and the engine and fleet " +
				"keep no hook that only a test sets.",
			func() []string {
				return join(
					rootSrc.idents("MRSFS"),
					nonTest.idents("NewCombiner", "CombinerFunc", "InADR", "TraceDir", "SpillFanIn", "workerEnvTrace"),
				)
			},
		},
		{
			"One in-task kernel",
			"A map or reduce task builds its local skylines one way, Algorithm 4's window " +
				"insert: no option, request field or job spec picks a batch kernel, and no mapper " +
				"buffers a partition to hand one. skyline.BNL and skyline.SFS are standalone kernels.",
			func() []string {
				return join(
					nonTest.identsMatching(regexp.MustCompile(`^Kernel(BNL|SFS)?$`)),
					nonTest.where(inDir("internal/core")).idents("pending"),
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

// TestCIRunPatternsNameTests: a `go test -run` that matches no test passes
// while it runs nothing, so a CI step would go on passing after the test it
// names was deleted or renamed. Every |-alternative of each -run in
// .github/workflows/ci.yml must match a Test function of the packages on
// its line (-run XXX, which runs none on purpose, is exempt), and each
// -fuzz must match exactly one Fuzz function there, as go test requires.
func TestCIRunPatternsNameTests(t *testing.T) {
	const ci = ".github/workflows/ci.yml"
	raw, err := os.ReadFile(ci)
	if err != nil {
		t.Fatal(err)
	}
	self, err := parser.ParseFile(token.NewFileSet(), "arch_test.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string][]string{} // package dir → its test files' functions
	for _, f := range append(parseTree(t), goFile{path: "arch_test.go", test: true, ast: self}) {
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && f.test && fd.Recv == nil {
				funcs[path.Dir(f.path)] = append(funcs[path.Dir(f.path)], fd.Name.Name)
			}
		}
	}
	// A command ends at an unquoted &, ; or |; a pattern may be quoted.
	command := regexp.MustCompile(`go test (?:[^&;|']|'[^']*')*`)
	flag := regexp.MustCompile(`-(run|fuzz|bench)[ =](?:'([^']*)'|(\S+))`)
	for i, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		for _, cmd := range command.FindAllString(line, -1) {
			var pkgs, names []string
			for _, w := range strings.Fields(flag.ReplaceAllString(cmd, "")) {
				if strings.HasPrefix(w, ".") {
					pkgs = append(pkgs, w)
				}
			}
			for dir, fns := range funcs {
				if slices.ContainsFunc(pkgs, func(p string) bool { return pkgNames(p, dir) }) {
					names = append(names, fns...)
				}
			}
			count := func(prefix, pattern string) int {
				n := 0
				for _, name := range names {
					if ok, _ := regexp.MatchString(pattern, name); ok && strings.HasPrefix(name, prefix) {
						n++
					}
				}
				return n
			}
			for _, m := range flag.FindAllStringSubmatch(cmd, -1) {
				pattern := m[2] + m[3]
				if n := count("Fuzz", pattern); m[1] == "fuzz" && n != 1 {
					t.Errorf("%s:%d: -fuzz %q matches %d Fuzz functions in %v, want 1", ci, i+1, pattern, n, pkgs)
				}
				for _, alt := range strings.Split(pattern, "|") {
					if m[1] == "run" && pattern != "XXX" && count("Test", alt) == 0 {
						t.Errorf("%s:%d: -run alternative %q matches no Test function in %v", ci, i+1, alt, pkgs)
					}
				}
			}
		}
	}
}

// pkgNames reports whether the go test package argument pkg ("." or
// "./a/b/", either with a "/..." suffix) names the package in dir.
func pkgNames(pkg, dir string) bool {
	pkg = strings.Trim(strings.TrimPrefix(pkg, "./"), "/")
	if rest, ok := strings.CutSuffix(pkg, "..."); ok {
		rest = strings.Trim(rest, "./")
		return rest == "" || dir == rest || strings.HasPrefix(dir, rest+"/")
	}
	return dir == pkg
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

// mapsOf finds map types whose values are pointers to the named type
// ("T" or "pkg.T", as in calls).
func (files goFiles) mapsOf(elem string) []string {
	return files.inspect(func(n ast.Node) (string, bool) {
		m, ok := n.(*ast.MapType)
		if !ok {
			return "", false
		}
		star, ok := m.Value.(*ast.StarExpr)
		if !ok {
			return "", false
		}
		name, qualified := calleeName(star.X)
		return "map[…]*" + qualified, name == elem || qualified == elem
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
