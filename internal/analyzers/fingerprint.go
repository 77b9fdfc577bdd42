package analyzers

import (
	"flag"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Fingerprint enforces the PR 6 cache-identity rule: api.Request.Fingerprint
// hashes data identity (the network source and inline ontology) and never
// run parameters (thresholds, p-cuts, precision, workers, deadlines). A run
// parameter that leaks into the fingerprint splits the cache namespace —
// requests that should share artifacts stop sharing — and once the
// persistent artifact tier lands, the wrong key
// is corruption on disk, not just a cold cache.
//
// The analyzer tracks which struct fields reach the hash inside the
// fingerprint functions' call graph: every value that flows into a hash
// sink (json.Marshal feeding the digest, hash.Hash.Write, crypto Sum
// functions) is walked field-by-field, and any field classified as a run
// parameter is reported unless the function explicitly clears it first
// (the `net.Correlation = nil` idiom).
var Fingerprint = &analysis.Analyzer{
	Name: "fingerprint",
	Doc: "flag run parameters leaking into the request fingerprint hash\n\n" +
		"Cache identity is data identity: the fingerprint must be a function of\n" +
		"what is computed on, never of how it is computed (DESIGN.md §6, §7).",
	Run: runFingerprint,
}

var (
	fingerprintScope = scopeFlag{expr: `(^|/)api$`}
	fingerprintFuncs = scopeFlag{expr: `^Fingerprint$`}
	// fingerprintParams classifies run-parameter fields as
	// "Type:field;Type:*;..." — `*` marks every field of the type.
	fingerprintParams = "CorrelationSpec:*;FilterSpec:*;ClusterSpec:*;ScoreSpec:Enabled;OutputSpec:*;Request:DeadlineMillis"
)

func init() {
	Fingerprint.Flags.Init("fingerprint", flag.ExitOnError)
	Fingerprint.Flags.StringVar(&fingerprintScope.expr, "packages", fingerprintScope.expr,
		"regexp of package paths the analyzer applies to")
	Fingerprint.Flags.StringVar(&fingerprintFuncs.expr, "funcs", fingerprintFuncs.expr,
		"regexp of function names that compute cache identity")
	Fingerprint.Flags.StringVar(&fingerprintParams, "runparams", fingerprintParams,
		"run-parameter classification, Type:field;Type:*;...")
}

// paramSet answers "is (typeName, field) a run parameter?".
type paramSet map[string]map[string]bool

func parseParamSet(s string) paramSet {
	ps := paramSet{}
	for _, entry := range strings.Split(s, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		typ, field, ok := strings.Cut(entry, ":")
		if !ok {
			continue
		}
		if ps[typ] == nil {
			ps[typ] = map[string]bool{}
		}
		ps[typ][field] = true
	}
	return ps
}

func (ps paramSet) field(typeName, field string) bool {
	m := ps[typeName]
	return m != nil && (m[field] || m["*"])
}

func (ps paramSet) wholeType(typeName string) bool {
	m := ps[typeName]
	return m != nil && m["*"]
}

func runFingerprint(pass *analysis.Pass) (any, error) {
	if !fingerprintScope.match(pass.Pkg.Path()) {
		return nil, nil
	}
	rep := newReporter(pass, "fingerprint")
	params := parseParamSet(fingerprintParams)
	// A fingerprint that delegates its hashing to a helper is still
	// tracked at every call site.
	hashers := transitiveCallers(pass, isDirectSink)

	for _, f := range sourceFiles(pass) {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fingerprintFuncs.match(fd.Name.Name) {
				continue
			}
			checkFingerprintFunc(pass, rep, params, hashers, fd)
		}
	}
	return nil, nil
}

// isDirectSink reports whether the call feeds bytes into a digest: a
// json/gob encode that the fingerprint hashes, a crypto/hash package
// function, or a Write-family method on a crypto/hash type.
func isDirectSink(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := calleeFunc(info, call)
	if !ok || fn.Pkg() == nil {
		return false
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch {
	case path == "encoding/json" && strings.HasPrefix(name, "Marshal"):
		return true
	case strings.HasPrefix(path, "crypto/") || path == "hash" || strings.HasPrefix(path, "hash/"):
		return true
	}
	return false
}

func checkFingerprintFunc(pass *analysis.Pass, rep *reporter, params paramSet, hashers map[*types.Func]bool, fd *ast.FuncDecl) {
	info := pass.TypesInfo

	// cleared records explicit zeroing assignments `x.Field = nil/0/""`:
	// the approved way to carry a mixed struct into the hash is to clear
	// its run-param fields first (keyed by owner type so the walk below can
	// skip them). Lexical position gates "cleared before hashed".
	type clearedField struct {
		owner, field string
		pos          token.Pos
	}
	var cleared []clearedField
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !ok || !isZeroExpr(as.Rhs[i]) {
				continue
			}
			if owner := namedTypeName(info.TypeOf(sel.X)); owner != "" {
				cleared = append(cleared, clearedField{owner, sel.Sel.Name, as.Pos()})
			}
		}
		return true
	})
	isCleared := func(owner, field string, before token.Pos) bool {
		for _, c := range cleared {
			if c.owner == owner && c.field == field && c.pos < before {
				return true
			}
		}
		return false
	}

	reported := map[string]bool{}
	report := func(pos token.Pos, owner, field, why string) {
		key := owner + "." + field
		if reported[key] {
			return
		}
		reported[key] = true
		rep.reportf(pos, "fingerprint hashes run parameter %s.%s (%s): cache identity must cover data only — clear the field before hashing or move it to the artifact key", owner, field, why)
	}

	// walkType recursively checks every field of t reachable by the
	// encoder/hasher at the sink.
	var walkType func(t types.Type, pos token.Pos, seen map[*types.Named]bool)
	walkType = func(t types.Type, pos token.Pos, seen map[*types.Named]bool) {
		t = derefType(t)
		named, _ := t.(*types.Named)
		if named != nil {
			if seen[named] {
				return
			}
			seen[named] = true
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		ownerName := ""
		if named != nil {
			ownerName = named.Obj().Name()
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if tag := reflect.StructTag(st.Tag(i)).Get("json"); strings.Split(tag, ",")[0] == "-" {
				continue // never marshaled
			}
			if ownerName != "" && isCleared(ownerName, f.Name(), pos) {
				continue
			}
			ft := derefType(f.Type())
			switch {
			case ownerName != "" && params.field(ownerName, f.Name()):
				report(pos, ownerName, f.Name(), "run parameter field")
			case namedTypeName(ft) != "" && params.wholeType(namedTypeName(ft)):
				report(pos, ownerName+orAnon(ownerName), f.Name(), "carries run-param struct "+namedTypeName(ft))
			default:
				walkType(ft, pos, seen)
			}
		}
	}

	// checkArgExpr also catches selector chains that name a run-param field
	// directly, e.g. h.Write(...r.Filter.Seed...).
	checkArgExpr := func(arg ast.Expr, pos token.Pos) {
		ast.Inspect(arg, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			v, ok := info.ObjectOf(sel.Sel).(*types.Var)
			if !ok || !v.IsField() {
				return true
			}
			owner := namedTypeName(info.TypeOf(sel.X))
			if owner == "" {
				return true
			}
			if isCleared(owner, sel.Sel.Name, pos) {
				return true
			}
			if params.field(owner, sel.Sel.Name) {
				report(sel.Pos(), owner, sel.Sel.Name, "run parameter field")
			}
			return true
		})
		walkType(info.TypeOf(arg), pos, map[*types.Named]bool{})
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee, resolvable := calleeFunc(info, call)
		isHelper := resolvable && hashers[callee]
		if !isDirectSink(info, call) && !isHelper {
			return true
		}
		for _, arg := range call.Args {
			checkArgExpr(arg, call.Pos())
		}
		// A helper method's receiver carries data into the hash too.
		if isHelper {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if tv, ok := info.Types[sel.X]; ok && tv.IsValue() {
					checkArgExpr(sel.X, call.Pos())
				}
			}
		}
		return true
	})
}

func orAnon(owner string) string {
	if owner == "" {
		return "(anonymous)"
	}
	return ""
}

// derefType strips pointers, slices, arrays, and map values down to the
// element type an encoder would visit.
func derefType(t types.Type) types.Type {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		default:
			return t
		}
	}
}

// namedTypeName returns the name of t's (possibly pointed-to) named type,
// or "".
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if n, ok := derefType(t).(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// isZeroExpr reports whether e is a zero-value literal: nil, 0, "", false,
// or an empty composite literal.
func isZeroExpr(e ast.Expr) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return v.Name == "nil" || v.Name == "false"
	case *ast.BasicLit:
		return v.Value == "0" || v.Value == `""` || v.Value == "``" || v.Value == "0.0"
	case *ast.CompositeLit:
		return len(v.Elts) == 0
	}
	return false
}
