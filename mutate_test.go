package locaware

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// mutatePkgs names the packages TestMutate mutates, as in -mutate=protocol,sim:
// a package under internal/, or . for the root package. Unset, it skips, as
// goldens rewrite only on -update.
var mutatePkgs = flag.String("mutate", "", "comma-separated packages to mutation-test: internal ones by name, . for the root")

// mutationFloors are measured scores (killed / viable, allow-listed
// equivalents excluded) a package may not fall below.
var mutationFloors = map[string]float64{"protocol": 1, "metrics": 0.9718, "sweep": 1, "scenario": 1, "campaign": 1, "obs": 1}

// Why a survivor behaves like the original, for reasons several share.
const (
	scratch   = "the scratch is resliced to length 0 before every use"
	alloc     = "allocation only: the same values, kept in fresh or larger memory"
	noTracer  = "without a tracer no one reads the span emit returns"
	screen    = "it only loosens a screen; the exact test behind the screen decides"
	probe     = "the probe still finds every key and a free slot: the table is never half full"
	firstWins = "the first candidate replaces the initial best: a neighbour's degree is >= 1"
	uniqueSeq = "seq is unique per engine, so no two queued entries tie on it"
	boundary  = "at the boundary both branches give the same value"
	scaledPos = "validated non-negative values times an intensity f >= 0 are never negative"
	errFirst  = "every caller returns the error before it reads the index"
	dirSync   = "a skipped directory fsync shows only after a power cut, which no test makes"
	oneTrial  = "a spec's 0 trials and Options.Trials 0 or 1 all resolve to one trial"
	mixZero   = "the seed mixer returns 0 or 1 for one (root, cell) pair in 2^64, which no test can find"
	noHot     = "a hot set of 0 swaps nothing and re-sets the unchanged ranking and exponent"
	fileSync  = "a skipped or unchecked file fsync shows only after a power cut or a failing disk, which no test makes"
)

// equivalentMutants allow-lists the survivors no test can kill, each with
// why the mutant behaves like the original. A key is a mutant's id, or its
// site (file:line:col) for every mutant there.
var equivalentMutants = map[string]string{
	"gossip.go:26:28:inc": scratch, "network.go:171:22:inc": scratch, "network.go:327:35:inc": scratch,
	"network.go:328:35:inc": scratch, "network.go:329:35:inc": scratch, "network.go:330:35:inc": scratch,
	"response.go:167:2:del": scratch, "response.go:167:22:inc": scratch, "routing.go:25:2:del": scratch,
	"routing.go:25:22:inc": scratch, "routing.go:212:2:del": scratch, "routing.go:212:19:inc": scratch,
	"lifecycle.go:57:3:del": scratch, "response.go:150:3:del": scratch,
	"network.go:327:38": alloc, "network.go:328:38": alloc,
	"network.go:329:38": alloc, "network.go:330:38": alloc, "node.go:71:27": alloc, "node.go:138:23": alloc,
	"node.go:156:58:dec": alloc, "node.go:264:16": alloc, "node.go:291:11": alloc, "node.go:74:18:inc": alloc,
	"routing.go:167:53:inc": alloc, "lifecycle.go:19:13:rel": alloc,
	"gossip.go:54:3:del": alloc, "response.go:87:3:del": alloc, "network.go:367:10": noTracer,
	"network.go:391:10": noTracer, "node.go:98:90:inc": screen,
	"node.go:186:27:inc": screen, "network.go:130:17": probe, "network.go:130:69:inc": probe,
	"routing.go:205:19": firstWins, "routing.go:205:23": firstWins,
	"response.go:179:37":    "math.Inf of any sign >= 0 is +Inf",
	"network.go:174:7:rel":  "at n == words a table and the bitmap are one size and answer alike",
	"response.go:20:23:dec": "comparing ms[0] with itself changes nothing",
	"routing.go:219:18:inc": "copy moves min(len(dst), len(src)) = best elements either way",
	"queue.go:29:15:rel":    "inside a.at != b.at, < and <= agree",
	"queue.go:31:15:rel":    uniqueSeq,
	"queue.go:40:46:inc":    uniqueSeq + "; a borrow-in of 1 compares seq by <=",
	"queue.go:102:22:rel":   "the scalar loop picks the same least child of a full group",
	"queue.go:106:21:dec":   "comparing ents[child] with itself changes nothing",
	"engine.go:109:11:rel":  boundary, "event.go:47:8:rel": boundary, "event.go:55:7:rel": boundary,
	"intensity.go:31:7:rel": boundary, "intensity.go:104:7:rel": boundary, "intensity.go:104:10:dec": boundary,
	"intensity.go:115:7:rel": boundary, "intensity.go:118:7:rel": boundary, "intensity.go:108:12": scaledPos,
	"intensity.go:108:14": scaledPos, "intensity.go:109:10": scaledPos, "intensity.go:115:9:dec": scaledPos,
	"intensity.go:116:10": scaledPos, "export.go:169:9": errFirst,
	"checkpoint.go:104:3:del": dirSync, "checkpoint.go:116:9:rel": dirSync, "locaware.go:541:8:rel": boundary,
	"locaware_campaign.go:35:34:rel": oneTrial, "locaware_campaign.go:35:36": oneTrial,
	"spec.go:362:10:inc": mixZero, "spec.go:363:3:del": mixZero, "run.go:54:24:dec": "the one caller passes only runs that kept a trace",
	"runtime.go:211:16:rel": noHot, "runtime.go:211:18:dec": noHot, "runtime.go:214:10:rel": boundary, "runtime.go:236:15:inc": boundary,
	"runtime.go:302:7:rel": boundary, "runtime.go:363:7:rel": boundary, "spec.go:239:43:rel": boundary, "runtime.go:353:32:inc": alloc,
	"runtime.go:321:21:rel": "SetLatencyFactor stores a factor below 1 as 1, and 1 scales no RTT", "runtime.go:321:23:dec": "SetLatencyFactor stores a factor below 1 as 1",
	"runtime.go:333:12:dec": "Neighbors of an id outside the graph is empty", "runtime.go:333:17:rel": "Neighbors of an id outside the graph is empty",
	"runtime.go:336:10:rel": "the graph has no self-links", "runtime.go:361:17:rel": "locIds are distinct, so ids[i] == ids[j] only for i == j", "runtime.go:342:29:rel": "a uniform draw equals the drop fraction with probability about 2^-53",
	"spec.go:245:2:del": "the last cumulative fraction is the total exactly, so the last end is measured already", "runtime.go:202:3:del": "Validate refuses an unknown kind before Attach, so the default case never runs",
	"runtime.go:227:18:rel": "SetRateFactor ignores a factor <= 0 itself", "runtime.go:227:20:dec": "SetRateFactor ignores a factor <= 0 itself", "checkpoint.go:94:9:rel": fileSync, "checkpoint.go:95:3:del": fileSync, "checkpoint.go:97:30:rel": fileSync, "checkpoint.go:179:12:rel": boundary,
	"checkpoint.go:179:14": "a campaign hash is 64 hex characters or empty, never 11 to 13", "checkpoint.go:66:29": "0o754 and 0o756 leave the owner, the one process that uses the store, rwx as 0o755 does",
	"runtime.go:359:26:rel": "inside census[ids[i]] != census[ids[j]], > and >= agree",
	"fanout.go:52:7:rel":    boundary, "fanout.go:52:10:dec": boundary,
}

func allowListed(id string) bool {
	return equivalentMutants[id] != "" || equivalentMutants[id[:strings.LastIndex(id, ":")]] != ""
}

// mutant is one single-site change: apply edits the AST in place and undo
// restores it. Its id, file:line:col:op, is stable between runs.
type mutant struct {
	id, file    string
	apply, undo func()
}

var relFlip = map[token.Token]token.Token{
	token.LSS: token.LEQ, token.LEQ: token.LSS, token.GTR: token.GEQ,
	token.GEQ: token.GTR, token.EQL: token.NEQ, token.NEQ: token.EQL,
	token.LAND: token.LOR, token.LOR: token.LAND,
}

// mutantsOf lists every mutant of the package's non-test files: a flipped
// relational operator (rel), && and || swapped (andor), an integer literal
// moved by one (inc, dec) and a deleted assignment or expression statement
// (del). A := definition is never deleted: the result cannot compile.
func mutantsOf(fset *token.FileSet, files map[string]*ast.File) []mutant {
	var ms []mutant
	for name, f := range files {
		at := func(p token.Pos, op string) string {
			pos := fset.Position(p)
			return fmt.Sprintf("%s:%d:%d:%s", filepath.Base(name), pos.Line, pos.Column, op)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if to, ok := relFlip[n.Op]; ok {
					from, op := n.Op, "rel"
					if from == token.LAND || from == token.LOR {
						op = "andor"
					}
					ms = append(ms, mutant{at(n.OpPos, op), name, func() { n.Op = to }, func() { n.Op = from }})
				}
			case *ast.BasicLit:
				v, err := strconv.ParseInt(n.Value, 0, 64)
				if n.Kind != token.INT || err != nil {
					break
				}
				old := n.Value
				for op, d := range map[string]int64{"inc": 1, "dec": -1} {
					lit := strconv.FormatInt(v+d, 10)
					ms = append(ms, mutant{at(n.Pos(), op), name, func() { n.Value = lit }, func() { n.Value = old }})
				}
			case *ast.BlockStmt:
				ms = append(ms, deletions(at, name, n.List)...)
			case *ast.CaseClause:
				ms = append(ms, deletions(at, name, n.Body)...)
			}
			return true
		})
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].id < ms[j].id })
	return ms
}

func deletions(at func(token.Pos, string) string, file string, list []ast.Stmt) []mutant {
	var ms []mutant
	for i, s := range list {
		_, expr := s.(*ast.ExprStmt)
		if a, ok := s.(*ast.AssignStmt); !expr && (!ok || a.Tok == token.DEFINE) {
			continue
		}
		ms = append(ms, mutant{at(s.Pos(), "del"), file,
			func() { list[i] = &ast.EmptyStmt{Semicolon: s.Pos(), Implicit: true} },
			func() { list[i] = s }})
	}
	return ms
}

func TestMutate(t *testing.T) {
	if *mutatePkgs == "" {
		t.Skip("mutation runner: set -mutate=protocol,sim,… to run it")
	}
	cache := t.TempDir() // keeps each mutant's objects out of the user's build cache
	for _, pkg := range strings.Split(*mutatePkgs, ",") {
		t.Run(pkg, func(t *testing.T) { mutatePackage(t, pkg, cache) })
	}
}

// parsePackage parses the non-test files of pkg (an internal package's name,
// or . for the root) and returns them with the go test argument naming it.
func parsePackage(t *testing.T, fset *token.FileSet, pkg string) (files map[string]*ast.File, target string) {
	dir, name, target := filepath.Join("internal", pkg), pkg, "./internal/"+pkg
	if pkg == "." {
		dir, name, target = ".", "locaware", "."
	}
	dir, _ = filepath.Abs(dir)
	parsed, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, parser.ParseComments)
	if err != nil || parsed[name] == nil {
		t.Fatalf("parsing package %s in %s: %v", pkg, dir, err)
	}
	return parsed[name].Files, target
}

func mutatePackage(t *testing.T, pkg, cache string) {
	fset := token.NewFileSet()
	files, target := parsePackage(t, fset, pkg)
	tmp, start := t.TempDir(), time.Now()
	var viable, unviable, killed, equivalent int
	for _, m := range mutantsOf(fset, files) {
		m.apply()
		var src bytes.Buffer
		err := printer.Fprint(&src, fset, files[m.file])
		m.undo()
		if err != nil {
			t.Fatal(err)
		}
		killers, bad := runMutant(t, tmp, cache, m, src.Bytes(), target)
		switch {
		case bad:
			unviable++
			continue
		case len(killers) == 0 && allowListed(m.id):
			equivalent++
		case len(killers) > 0:
			killed++
			if allowListed(m.id) {
				t.Errorf("allow-listed mutant %s is killed by %v: drop its line", m.id, killers)
			}
		}
		viable++
		t.Logf("MUTANT %s killed-by %s", m.id, strings.Join(killers, ","))
	}
	score := float64(killed) / float64(max(viable-equivalent, 1))
	t.Logf("SCORE %s viable %d unviable %d killed %d equivalent %d score %.4f in %s",
		pkg, viable, unviable, killed, equivalent, score, time.Since(start).Round(time.Second))
	if floor, ok := mutationFloors[pkg]; ok && score < floor {
		t.Errorf("%s mutation score %.4f below its floor %.4f", pkg, score, floor)
	}
}

// runMutant overlays the mutated file from tmp (the source tree is never
// written) and runs the package's tests, then the root package's, under
// -short in one child shell at a time, its address space capped. The root
// run skips the dead-code gate, which reads the unmutated files. No root
// test runs on an unviable mutant, nor, under -short, on one the package's
// tests kill; a root mutant runs the root tests once.
func runMutant(t *testing.T, tmp, cache string, m mutant, src []byte, pkg string) (killers []string, unviable bool) {
	file := filepath.Join(tmp, "mutant.go")
	overlay := filepath.Join(tmp, "overlay.json")
	ov, _ := json.Marshal(map[string]map[string]string{"Replace": {m.file: file}})
	if os.WriteFile(file, src, 0o644) != nil || os.WriteFile(overlay, ov, 0o644) != nil {
		t.Fatal("writing the overlay")
	}
	goTest := func(args string) []byte {
		cmd := exec.Command("sh", "-c", "ulimit -v 6000000; exec go test -json -short -count=1 -vet=off -timeout=60s -overlay="+overlay+" "+args)
		cmd.Env = append(os.Environ(), "GOCACHE="+cache)
		out, _ := cmd.Output()
		return out
	}
	const root = "-skip=TestNoTestOnlyProductionCode ."
	if pkg == "." {
		return parseRun(goTest(root))
	}
	out := goTest(pkg)
	if killers, unviable = parseRun(out); unviable || testing.Short() && len(killers) > 0 {
		return killers, unviable
	}
	return parseRun(append(out, goTest(root)...))
}

// parseRun reads go test -json output. A build failure makes the mutant
// unviable; a test that failed, or started and never ended (a panic or the
// timeout ended its binary), killed it.
func parseRun(out []byte) (killers []string, unviable bool) {
	open := map[string]bool{}
	failed := map[string]bool{}
	for _, line := range bytes.Split(out, []byte("\n")) {
		var e struct{ Action, Package, Test, Output, FailedBuild string }
		if json.Unmarshal(line, &e) != nil {
			continue
		}
		name := strings.TrimPrefix(e.Package, "github.com/p2prepro/locaware") + ":" + e.Test
		switch {
		case e.FailedBuild != "" || strings.Contains(e.Output, "[build failed]") || strings.Contains(e.Output, "[setup failed]"):
			unviable = true
		case e.Test == "" || strings.Contains(e.Test, "/"):
		case e.Action == "run":
			open[name] = true
		case e.Action == "fail":
			failed[name] = true
			delete(open, name)
		case e.Action == "pass" || e.Action == "skip":
			delete(open, name)
		}
	}
	for name := range open {
		failed[name] = true
	}
	for name := range failed {
		killers = append(killers, name)
	}
	sort.Strings(killers)
	return killers, unviable
}

// TestEquivalentMutantsResolve keeps the allow-list in step with the code
// without running a mutant: every key must name a mutant, or a site, that
// mutantsOf generates in exactly one package, so an edit that moves a listed
// line cannot leave a stale entry behind.
func TestEquivalentMutantsResolve(t *testing.T) {
	dirs, _ := filepath.Glob("internal/*")
	packages := map[string]int{}
	for _, pkg := range append(dirs, ".") {
		fset := token.NewFileSet()
		files, _ := parsePackage(t, fset, strings.TrimPrefix(pkg, "internal/"))
		keys := map[string]bool{}
		for _, m := range mutantsOf(fset, files) {
			keys[m.id], keys[m.id[:strings.LastIndex(m.id, ":")]] = true, true
		}
		for k := range keys {
			packages[k]++
		}
	}
	for key := range equivalentMutants {
		if packages[key] != 1 {
			t.Errorf("equivalentMutants key %s names a mutant in %d packages, not 1", key, packages[key])
		}
	}
}
