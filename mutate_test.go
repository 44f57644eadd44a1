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

// mutatePkgs names the packages under internal/ TestMutate mutates, as in
// -mutate=protocol,sim; unset, it skips, as goldens rewrite only on -update.
var mutatePkgs = flag.String("mutate", "", "comma-separated internal packages to mutation-test")

// mutationFloors are measured scores (killed / viable, allow-listed
// equivalents excluded) a package may not fall below.
var mutationFloors = map[string]float64{"metrics": 0.8333}

// Why a survivor behaves like the original, for reasons several share.
const (
	scratch   = "the scratch is resliced to length 0 before every use"
	alloc     = "allocation only: the same values, kept in fresh or larger memory"
	noTracer  = "without a tracer no one reads the span emit returns"
	unread    = "Flooding never writes its response index, so its provider bound is never read"
	zeroed    = "acquirePending zeroes the state, so the field is 0 already"
	screen    = "it only loosens a screen; the exact test behind the screen decides"
	probe     = "the probe still finds every key and a free slot: the table is never half full"
	firstWins = "the first candidate replaces the initial best: a neighbour's degree is >= 1"
)

// equivalentMutants allow-lists the survivors no test can kill, each with
// why the mutant behaves like the original. A key is a mutant's id, or its
// site (file:line:col) for every mutant there.
var equivalentMutants = map[string]string{
	"gossip.go:25:28:inc": scratch, "network.go:203:22:inc": scratch, "network.go:354:35:inc": scratch,
	"network.go:355:35:inc": scratch, "network.go:356:35:inc": scratch, "network.go:357:35:inc": scratch,
	"response.go:131:2:del": scratch, "response.go:131:21:inc": scratch, "routing.go:26:2:del": scratch,
	"routing.go:26:22:inc": scratch, "routing.go:173:2:del": scratch, "routing.go:173:19:inc": scratch,
	"lifecycle.go:48:3:del": scratch, "response.go:116:3:del": scratch,
	"network.go:354:38": alloc, "network.go:355:38": alloc,
	"network.go:356:38": alloc, "network.go:357:38": alloc, "node.go:72:27": alloc, "node.go:139:23": alloc,
	"node.go:157:58:dec": alloc, "node.go:268:16": alloc, "node.go:295:11": alloc, "node.go:75:18:inc": alloc,
	"routing.go:128:3:del": alloc, "routing.go:128:53": alloc, "lifecycle.go:19:13:rel": alloc,
	"gossip.go:53:3:del": alloc, "response.go:69:3:del": alloc, "network.go:394:10": noTracer,
	"network.go:418:10": noTracer, "flooding.go:46:2:del": unread, "flooding.go:46:29": unread,
	"lifecycle.go:64:3:del": zeroed, "lifecycle.go:66:3:del": zeroed, "node.go:99:90:inc": screen,
	"node.go:188:27:inc": screen, "network.go:162:17": probe, "network.go:162:69:inc": probe,
	"routing.go:166:19": firstWins, "routing.go:166:23": firstWins,
	"locaware.go:99:22":     "math.Inf of any sign >= 0 is +Inf",
	"network.go:206:7:rel":  "at n == words a table and the bitmap are one size and answer alike",
	"node.go:213:3:del":     "the stored filename is equal to f",
	"response.go:19:23:dec": "comparing ms[0] with itself changes nothing",
	"routing.go:180:18:inc": "copy moves min(len(dst), len(src)) = best elements either way",
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

func mutatePackage(t *testing.T, pkg, cache string) {
	dir, _ := filepath.Abs(filepath.Join("internal", pkg))
	fset := token.NewFileSet()
	parsed, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, parser.ParseComments)
	if err != nil || parsed[pkg] == nil {
		t.Fatalf("parsing package %s in %s: %v", pkg, dir, err)
	}
	files := parsed[pkg].Files
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
		killers, bad := runMutant(t, tmp, cache, m, src.Bytes(), "./internal/"+pkg)
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
// written) and runs the package's tests, then the root goldens, under -short
// in one child shell at a time, its address space capped. No golden runs on
// an unviable mutant, nor, under -short, on one the package's tests kill.
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
	out := goTest(pkg)
	if killers, unviable = parseRun(out); unviable || testing.Short() && len(killers) > 0 {
		return killers, unviable
	}
	return parseRun(append(out, goTest("-run=Golden .")...))
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
