package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// metricNameRE is the Prometheus-convention shape every pelican_* family
// must match: lower-case snake segments, no leading/trailing underscores.
var metricNameRE = regexp.MustCompile(`^pelican(_[a-z][a-z0-9]*)+$`)

// MetricReg returns the analyzer auditing the pelican_* metric surface:
//
//   - every family emitted anywhere is declared (# HELP/# TYPE via
//     WritePromHeader) exactly once, and every declared family is emitted;
//   - names match Prometheus conventions (^pelican(_[a-z][a-z0-9]*)+$),
//     counters end in _total, gauges and histograms do not;
//   - all emit sites of a family agree on the label-key set;
//   - bare pelican_* string literals elsewhere (scrape tables, CLI
//     summaries) resolve to a declared family or a histogram's derived
//     _bucket/_sum/_count series.
//
// Metric names reach the exposition writer through small wrapper closures
// (counter, slotCounter, stageHist, gauge); the analyzer resolves those by
// computing, per function, which parameter carries the family name and
// what declaration/emission effect the body applies to it, then replays
// the effects at every call site with a constant name argument. The
// primitives are recognized by name — WritePromHeader, writeSample, and
// Histogram.WriteProm — so testdata packages can model them without
// importing internal/obs.
func MetricReg() *Analyzer {
	r := newMetricRegistry()
	return &Analyzer{
		Name: "metricreg",
		Doc:  "pelican_* metrics declared exactly once, conventionally named, with consistent labels",
		Run:  func(p *Pass) { r.collect(p) },
		Finish: func(report func(Diagnostic)) {
			for _, d := range r.finish() {
				report(d)
			}
		},
	}
}

type metricDecl struct {
	typ string
	pos token.Position
}

type metricEmit struct {
	labels []string
	pos    token.Position
	hist   bool
}

type metricRegistry struct {
	decls map[string][]metricDecl
	emits map[string][]metricEmit
	refs  map[string][]token.Position
}

func newMetricRegistry() *metricRegistry {
	return &metricRegistry{
		decls: map[string][]metricDecl{},
		emits: map[string][]metricEmit{},
		refs:  map[string][]token.Position{},
	}
}

// effect records what a function does with the metric name arriving in one
// of its string parameters.
type effect struct {
	param   int
	declare bool
	typ     string   // declare: the # TYPE value, when constant
	labels  []string // emit: label keys
	hist    bool     // emit: Histogram.WriteProm (derived _bucket/_sum/_count)
}

// collect scans one package, recording declarations, emissions, and bare
// references into the registry.
func (r *metricRegistry) collect(p *Pass) {
	info := p.Pkg.Info
	consumed := map[token.Pos]bool{}

	// Pass 1: compute name-flow effects for every function declaration, so
	// calls like counter("pelican_x", ...) resolve wherever they appear.
	effects := map[types.Object][]effect{}
	var declParams func(fd *ast.FuncDecl) []types.Object
	declParams = func(fd *ast.FuncDecl) []types.Object {
		var params []types.Object
		if fd.Type.Params != nil {
			for _, field := range fd.Type.Params.List {
				for _, name := range field.Names {
					params = append(params, info.Defs[name])
				}
			}
		}
		return params
	}
	litParams := func(fl *ast.FuncLit) []types.Object {
		var params []types.Object
		if fl.Type.Params != nil {
			for _, field := range fl.Type.Params.List {
				for _, name := range field.Names {
					params = append(params, info.Defs[name])
				}
			}
		}
		return params
	}
	for _, f := range p.Pkg.Syntax {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || isMetricPrimitive(fd) {
				continue
			}
			if obj := info.Defs[fd.Name]; obj != nil {
				effects[obj] = r.computeEffects(info, fd.Body, declParams(fd))
			}
			// Local wrapper closures: name := func(...){...}.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
					return true
				}
				id, ok := as.Lhs[0].(*ast.Ident)
				if !ok {
					return true
				}
				fl, ok := as.Rhs[0].(*ast.FuncLit)
				if !ok {
					return true
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil {
					effects[obj] = r.computeEffects(info, fl.Body, litParams(fl))
				}
				return true
			})
		}
	}

	// Pass 2: replay effects and primitives at every call site with a
	// constant name, recording registry entries.
	paramObjs := map[types.Object]bool{}
	for _, f := range p.Pkg.Syntax {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || isMetricPrimitive(fd) {
				continue
			}
			for _, obj := range declParams(fd) {
				paramObjs[obj] = true
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					for _, obj := range litParams(fl) {
						paramObjs[obj] = true
					}
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				r.recordCall(p, call, effects, paramObjs, consumed)
				return true
			})
		}
	}

	// Pass 3: any remaining pelican_* string literal is a bare reference.
	for _, f := range p.Pkg.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING || consumed[lit.Pos()] {
				return true
			}
			v, okc := stringLit(info, lit)
			if !okc || !strings.HasPrefix(v, "pelican_") {
				return true
			}
			name := v
			if i := strings.IndexAny(name, "{ "); i >= 0 {
				name = name[:i]
			}
			// Only well-formed family names count as references; prose
			// mentioning the pelican_ prefix is not a metric.
			if metricNameRE.MatchString(name) {
				r.refs[name] = append(r.refs[name], p.Pkg.Fset.Position(lit.Pos()))
			}
			return true
		})
	}
}

// isMetricPrimitive reports whether fd is one of the exposition
// primitives whose internals the analyzer models rather than scans.
func isMetricPrimitive(fd *ast.FuncDecl) bool {
	switch fd.Name.Name {
	case "WritePromHeader", "writeSample":
		return fd.Recv == nil
	case "WriteProm":
		return fd.Recv != nil
	}
	return false
}

// computeEffects determines which of fn's parameters carry metric names
// into declaration or emission primitives.
func (r *metricRegistry) computeEffects(info *types.Info, body *ast.BlockStmt, params []types.Object) []effect {
	paramIdx := func(e ast.Expr) int {
		id, ok := unparen(e).(*ast.Ident)
		if !ok {
			return -1
		}
		obj := info.Uses[id]
		for i, p := range params {
			if p != nil && p == obj {
				return i
			}
		}
		return -1
	}
	var effs []effect
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case calleeName(call) == "WritePromHeader" && len(call.Args) == 4:
			if i := paramIdx(call.Args[1]); i >= 0 {
				typ, _ := stringLit(info, call.Args[2])
				effs = append(effs, effect{param: i, declare: true, typ: typ})
			}
		case calleeName(call) == "writeSample" && len(call.Args) == 3:
			if i := paramIdx(call.Args[1]); i >= 0 {
				effs = append(effs, effect{param: i})
			}
		case calleeName(call) == "WriteProm" && len(call.Args) == 3:
			if i := paramIdx(call.Args[1]); i >= 0 {
				effs = append(effs, effect{param: i, labels: labelKeysFromArg(info, call.Args[2]), hist: true})
			}
		case isPkgCall(info, call, "fmt", "Fprintf") && len(call.Args) >= 2:
			format, okf := stringLit(info, call.Args[1])
			if okf && strings.HasPrefix(format, "%s") && sampleShaped(format) && len(call.Args) >= 3 {
				if i := paramIdx(call.Args[2]); i >= 0 {
					effs = append(effs, effect{param: i, labels: labelKeysFromFormat(format)})
				}
			}
		}
		return true
	})
	return effs
}

// recordCall records declarations/emissions for one call site.
func (r *metricRegistry) recordCall(p *Pass, call *ast.CallExpr, effects map[types.Object][]effect, paramObjs map[types.Object]bool, consumed map[token.Pos]bool) {
	info := p.Pkg.Info
	pos := func(e ast.Expr) token.Position { return p.Pkg.Fset.Position(e.Pos()) }
	nameOf := func(arg ast.Expr) (string, bool) {
		name, ok := stringLit(info, arg)
		if ok {
			consumed[unparen(arg).Pos()] = true
			return name, true
		}
		// Names flowing through a known wrapper/primitive parameter are
		// accounted for at that wrapper's own call sites.
		if id, isID := unparen(arg).(*ast.Ident); isID && paramObjs[info.Uses[id]] {
			return "", false
		}
		p.Reportf(arg.Pos(), "metric name is not a string constant; the registry cannot audit dynamic names")
		return "", false
	}

	switch {
	case calleeName(call) == "WritePromHeader" && len(call.Args) == 4:
		if name, ok := nameOf(call.Args[1]); ok {
			typ, _ := stringLit(info, call.Args[2])
			r.decls[name] = append(r.decls[name], metricDecl{typ: typ, pos: pos(call.Args[1])})
		}
	case calleeName(call) == "writeSample" && len(call.Args) == 3:
		if name, ok := nameOf(call.Args[1]); ok {
			r.emits[name] = append(r.emits[name], metricEmit{pos: pos(call.Args[1])})
		}
	case calleeName(call) == "WriteProm" && len(call.Args) == 3:
		if name, ok := nameOf(call.Args[1]); ok {
			r.emits[name] = append(r.emits[name], metricEmit{
				labels: labelKeysFromArg(info, call.Args[2]), pos: pos(call.Args[1]), hist: true,
			})
		}
	case isPkgCall(info, call, "fmt", "Fprintf") && len(call.Args) >= 2:
		format, ok := stringLit(info, call.Args[1])
		if !ok {
			return
		}
		if strings.HasPrefix(format, "pelican_") {
			consumed[unparen(call.Args[1]).Pos()] = true
			name := format
			if i := strings.IndexAny(name, "{ "); i >= 0 {
				name = name[:i]
			}
			r.emits[name] = append(r.emits[name], metricEmit{
				labels: labelKeysFromFormat(format), pos: pos(call.Args[1]),
			})
		} else if strings.HasPrefix(format, "%s") && sampleShaped(format) && len(call.Args) >= 3 {
			if name, ok := nameOf(call.Args[2]); ok {
				r.emits[name] = append(r.emits[name], metricEmit{
					labels: labelKeysFromFormat(format), pos: pos(call.Args[2]),
				})
			}
		}
	default:
		obj := calleeObject(info, call)
		if obj == nil {
			return
		}
		for _, eff := range effects[obj] {
			if eff.param >= len(call.Args) {
				continue
			}
			name, ok := nameOf(call.Args[eff.param])
			if !ok {
				continue
			}
			if eff.declare {
				r.decls[name] = append(r.decls[name], metricDecl{typ: eff.typ, pos: pos(call.Args[eff.param])})
			} else {
				r.emits[name] = append(r.emits[name], metricEmit{
					labels: eff.labels, pos: pos(call.Args[eff.param]), hist: eff.hist,
				})
			}
		}
	}
}

// sampleShaped reports whether a "%s"-prefixed format writes a Prometheus
// sample line ("%s 1\n", "%s{a=%q} %d\n", "%s_bucket{...} %d\n") rather
// than arbitrary text.
func sampleShaped(format string) bool {
	rest := strings.TrimPrefix(format, "%s")
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		rest = strings.TrimPrefix(rest, suf)
	}
	if i := strings.IndexByte(rest, '{'); i == 0 {
		j := strings.IndexByte(rest, '}')
		if j < 0 {
			return false
		}
		rest = rest[j+1:]
	}
	return strings.HasPrefix(rest, " %")
}

// labelKeysFromFormat extracts label keys from the {k=…,k2=…} segment of a
// sample format string.
func labelKeysFromFormat(format string) []string {
	i := strings.IndexByte(format, '{')
	if i < 0 {
		return nil
	}
	j := strings.IndexByte(format[i:], '}')
	if j < 0 {
		return nil
	}
	return labelKeysFromList(format[i+1 : i+j])
}

// labelKeysFromList parses `slot=%q,version=%q` / `slot="live"` into keys.
func labelKeysFromList(list string) []string {
	var keys []string
	for _, part := range strings.Split(list, ",") {
		if k, _, ok := strings.Cut(strings.TrimSpace(part), "="); ok && k != "" {
			keys = append(keys, k)
		}
	}
	return keys
}

// labelKeysFromArg resolves a labels argument: a string constant, or
// fmt.Sprintf with a constant format.
func labelKeysFromArg(info *types.Info, arg ast.Expr) []string {
	if s, ok := stringLit(info, arg); ok {
		return labelKeysFromList(s)
	}
	if call, ok := unparen(arg).(*ast.CallExpr); ok && isPkgCall(info, call, "fmt", "Sprintf") && len(call.Args) >= 1 {
		if s, ok := stringLit(info, call.Args[0]); ok {
			return labelKeysFromList(s)
		}
	}
	return nil
}

// finish audits the accumulated registry and returns the findings.
func (r *metricRegistry) finish() []Diagnostic {
	var diags []Diagnostic
	add := func(pos token.Position, format string, args ...any) {
		diags = append(diags, newDiagnostic("metricreg", pos, format, args...))
	}

	names := map[string]bool{}
	for n := range r.decls {
		names[n] = true
	}
	for n := range r.emits {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	for _, name := range sorted {
		decls, emits := r.decls[name], r.emits[name]
		var at token.Position
		if len(decls) > 0 {
			at = decls[0].pos
		} else {
			at = emits[0].pos
		}
		if !metricNameRE.MatchString(name) {
			add(at, "metric %s violates naming conventions (want ^pelican(_[a-z][a-z0-9]*)+$)", name)
		}
		switch {
		case len(decls) == 0:
			add(emits[0].pos, "metric %s is emitted but never declared (missing WritePromHeader)", name)
		case len(decls) > 1:
			for _, d := range decls[1:] {
				add(d.pos, "metric %s declared more than once (first at %s:%d)", name, decls[0].pos.Filename, decls[0].pos.Line)
			}
		}
		if len(decls) > 0 {
			switch typ := decls[0].typ; typ {
			case "counter":
				if !strings.HasSuffix(name, "_total") {
					add(decls[0].pos, "counter %s must end in _total", name)
				}
			case "gauge", "histogram", "summary":
				if strings.HasSuffix(name, "_total") {
					add(decls[0].pos, "%s %s must not end in _total (reserved for counters)", typ, name)
				}
			default:
				add(decls[0].pos, "metric %s declares unknown type %q (want counter, gauge, histogram, or summary)", name, typ)
			}
		}
		if len(emits) == 0 {
			add(decls[0].pos, "metric %s is declared but never emitted", name)
		}
		if len(emits) > 1 {
			want := sortedKeys(emits[0].labels)
			for _, e := range emits[1:] {
				if got := sortedKeys(e.labels); got != want {
					add(e.pos, "metric %s emitted with label set {%s}, but {%s} at %s:%d", name, got, want, emits[0].pos.Filename, emits[0].pos.Line)
				}
			}
		}
	}

	refNames := make([]string, 0, len(r.refs))
	for n := range r.refs {
		refNames = append(refNames, n)
	}
	sort.Strings(refNames)
	for _, name := range refNames {
		if names[name] {
			continue
		}
		if base, ok := histBase(name); ok && len(r.decls[base]) > 0 && r.decls[base][0].typ == "histogram" {
			continue
		}
		for _, pos := range r.refs[name] {
			add(pos, "reference to undeclared metric %s", name)
		}
	}

	Sort(diags)
	return diags
}

// histBase strips a derived-histogram suffix, reporting whether one was
// present.
func histBase(name string) (string, bool) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf), true
		}
	}
	return name, false
}

func sortedKeys(keys []string) string {
	c := append([]string(nil), keys...)
	sort.Strings(c)
	return strings.Join(c, ",")
}

// Declared exposes the registry's declared families (name → type) for the
// SERVING.md doc-drift check.
func (r *metricRegistry) Declared() map[string]string {
	out := map[string]string{}
	for name, decls := range r.decls {
		if len(decls) > 0 {
			out[name] = decls[0].typ
		}
	}
	return out
}

// CollectMetrics runs the metricreg collection over pkgs and returns the
// declared families (name → type) without reporting diagnostics.
func CollectMetrics(pkgs []*Package) map[string]string {
	r := newMetricRegistry()
	a := &Analyzer{Name: "metricreg"}
	for _, pkg := range pkgs {
		r.collect(&Pass{Pkg: pkg, analyzer: a, report: func(Diagnostic) {}})
	}
	return r.Declared()
}
