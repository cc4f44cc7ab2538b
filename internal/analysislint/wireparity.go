package analysislint

// The wireparity rule holds the binary wire protocol and the JSON protocol
// structurally parallel, in two halves:
//
// Exhaustiveness — every msg*/op* byte constant of a wire package must
// have an encode/send site (the constant passed as a call argument:
// writeFrame, appendFrame, roundTrip, append) and a dispatch site (a
// switch case or ==/!= comparison, or a second distinct argument site for
// request/response pairs routed through roundTrip). A constant with
// neither is a message type the protocol forgot to speak; one without a
// dispatch arm is a frame the server drops on the floor. Aliases
// (`msgMax = msgError`) are exempt.
//
// Field parity — each configured WirePair compares a wire-side message (a
// struct, or an encode function whose parameters after the leading
// `dst []byte` buffer are the message fields) against its JSON twin
// struct. Fields match case-insensitively by name and must have identical
// types; pointer-to-struct fields of the JSON side declared in the same
// package are flattened (FetchResponse.Assignment contributes Replica,
// Bag, Task and Work). A field present on one side only is drift — the
// exact failure mode where someone adds a field to serve/protocol.go and
// the binary clients silently never see it. Deliberate divergence is
// declared with //botlint:wire-skip (on a struct field, or
// `//botlint:wire-skip <param> -- reason` in an encode function's doc);
// a skip without a reason, or naming an unknown parameter, is a finding.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

const wireParityRule = "wireparity"

// parityField is one comparable message field.
type parityField struct {
	name string
	typ  types.Type
	pos  token.Pos
}

func checkWireParity(p *pass) {
	for _, pair := range p.cfg.WirePairs {
		p.checkWirePair(pair)
	}
	for _, path := range p.cfg.WireConstPkgs {
		p.checkWireConsts(path)
	}
}

func (p *pass) checkWirePair(pair WirePair) {
	wirePkg := p.m.byPath[pair.WirePkg]
	jsonPkg := p.m.byPath[pair.JSONPkg]
	if wirePkg == nil || jsonPkg == nil {
		return // package not loaded (fixture configs name only what they ship)
	}
	wireFields, ok := p.wireSideFields(wirePkg, pair.Wire)
	if !ok {
		p.report(wirePkg.Files[0].Pos(), wireParityRule,
			fmt.Sprintf("wire pair %s ↔ %s: %s is not a struct or function in %s", pair.Wire, pair.JSON, pair.Wire, pair.WirePkg))
		return
	}
	jsonFields, ok := p.jsonSideFields(jsonPkg, pair.JSON)
	if !ok {
		p.report(jsonPkg.Files[0].Pos(), wireParityRule,
			fmt.Sprintf("wire pair %s ↔ %s: %s is not a struct in %s", pair.Wire, pair.JSON, pair.JSON, pair.JSONPkg))
		return
	}

	matched := make([]bool, len(jsonFields))
	for _, wf := range wireFields {
		found := false
		for i, jf := range jsonFields {
			if matched[i] || !strings.EqualFold(wf.name, jf.name) {
				continue
			}
			matched[i] = true
			found = true
			if !types.Identical(wf.typ, jf.typ) {
				p.report(wf.pos, wireParityRule, fmt.Sprintf(
					"wire message %s field %s drifted from %s.%s: wire %s vs JSON %s",
					pair.Wire, wf.name, pair.JSON, jf.name, wf.typ, jf.typ))
			}
			break
		}
		if !found {
			p.report(wf.pos, wireParityRule, fmt.Sprintf(
				"wire message %s field %s has no twin in JSON %s (mirror it or annotate //botlint:wire-skip with a reason)",
				pair.Wire, wf.name, pair.JSON))
		}
	}
	for i, jf := range jsonFields {
		if !matched[i] {
			p.report(jf.pos, wireParityRule, fmt.Sprintf(
				"JSON %s field %s is not mirrored by wire %s (extend the wire codec or annotate //botlint:wire-skip with a reason)",
				pair.JSON, jf.name, pair.Wire))
		}
	}
}

// wireSideFields resolves the wire half of a pair: the fields of a struct,
// or the parameters of an encode function after the leading dst []byte.
func (p *pass) wireSideFields(pkg *Package, name string) ([]parityField, bool) {
	switch obj := pkg.Types.Scope().Lookup(name).(type) {
	case *types.Func:
		fn, ok := p.idx.byObj[obj]
		if !ok {
			return nil, false
		}
		return p.funcParamFields(fn), true
	case *types.TypeName:
		st := p.findStructType(pkg, name)
		if st == nil {
			return nil, false
		}
		return p.structParityFields(pkg, st, false), true
	}
	return nil, false
}

// funcParamFields turns an encode function's parameters into parity
// fields, honoring //botlint:wire-skip <param> -- reason doc directives.
func (p *pass) funcParamFields(fn *funcNode) []parityField {
	skips := map[string]string{} // param -> reason
	used := map[string]bool{}
	for _, args := range docDirectives(fn.decl.Doc, "wire-skip") {
		param, reason := splitReason(args)
		if param == "" {
			p.report(fn.decl.Pos(), wireParityRule,
				"//botlint:wire-skip on a function doc must name a parameter (`//botlint:wire-skip <param> -- reason`)")
			continue
		}
		if reason == "" {
			p.report(fn.decl.Pos(), wireParityRule, fmt.Sprintf(
				"//botlint:wire-skip %s has no reason (want `//botlint:wire-skip %s -- why`)", param, param))
		}
		skips[param] = reason
	}
	var out []parityField
	first := true
	for _, field := range fn.decl.Type.Params.List {
		for _, nm := range field.Names {
			if first {
				first = false
				// The destination buffer is codec plumbing, not a message field.
				if nm.Name == "dst" {
					continue
				}
			}
			if _, ok := skips[nm.Name]; ok {
				used[nm.Name] = true
				continue
			}
			out = append(out, parityField{name: nm.Name, typ: p.m.Info.TypeOf(field.Type), pos: nm.Pos()})
		}
	}
	for param := range skips {
		if !used[param] {
			p.report(fn.decl.Pos(), wireParityRule, fmt.Sprintf(
				"//botlint:wire-skip %s names no parameter of %s", param, fn.decl.Name.Name))
		}
	}
	return out
}

// jsonSideFields returns the JSON struct's parity fields, flattening
// same-package (pointer-to-)struct fields.
func (p *pass) jsonSideFields(pkg *Package, name string) ([]parityField, bool) {
	st := p.findStructType(pkg, name)
	if st == nil {
		return nil, false
	}
	return p.structParityFields(pkg, st, true), true
}

// structParityFields lists a struct's fields, honoring //botlint:wire-skip
// field directives. With flatten set, a field whose (pointer-to-)struct
// type is declared in the same package contributes that struct's fields
// instead of itself.
func (p *pass) structParityFields(pkg *Package, st *ast.StructType, flatten bool) []parityField {
	var out []parityField
	for _, field := range st.Fields.List {
		if args, ok := fieldDirective(field, "wire-skip"); ok {
			// Field form carries only the reason: `//botlint:wire-skip -- why`.
			reason := ""
			if rest, found := strings.CutPrefix(args, "--"); found {
				reason = strings.TrimSpace(rest)
			}
			if reason == "" {
				pos, _ := fieldDirectivePos(field, "wire-skip")
				p.report(pos, wireParityRule,
					"//botlint:wire-skip has no reason (want `//botlint:wire-skip -- why`)")
			}
			continue
		}
		t := p.m.Info.TypeOf(field.Type)
		if flatten {
			if sub := p.samePackageStruct(pkg, t); sub != nil {
				out = append(out, p.structParityFields(pkg, sub, false)...)
				continue
			}
		}
		for _, nm := range field.Names {
			out = append(out, parityField{name: nm.Name, typ: t, pos: nm.Pos()})
		}
	}
	return out
}

// samePackageStruct returns the AST struct type behind t when t (or its
// pointee) is a named struct declared in pkg.
func (p *pass) samePackageStruct(pkg *Package, t types.Type) *ast.StructType {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg() != pkg.Types {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return p.findStructType(pkg, obj.Name())
}

// findStructType locates the ast.StructType of a named type in pkg.
func (p *pass) findStructType(pkg *Package, name string) *ast.StructType {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					return st
				}
			}
		}
	}
	return nil
}

// checkWireConsts enforces encode/dispatch exhaustiveness for the msg*/op*
// constants of one wire package.
func (p *pass) checkWireConsts(path string) {
	pkg := p.m.byPath[path]
	if pkg == nil {
		return
	}
	type constUse struct {
		obj      *types.Const
		pos      token.Pos
		argUses  int
		caseUses int
	}
	consts := map[*types.Const]*constUse{}
	var order []*constUse
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, nm := range vs.Names {
					if !strings.HasPrefix(nm.Name, "msg") && !strings.HasPrefix(nm.Name, "op") {
						continue
					}
					// Aliases (`msgMax = msgError`) track another constant and
					// need no arms of their own.
					if i < len(vs.Values) {
						if id, ok := vs.Values[i].(*ast.Ident); ok {
							if _, isConst := p.m.Info.Uses[id].(*types.Const); isConst {
								continue
							}
						}
					}
					c, ok := p.m.Info.Defs[nm].(*types.Const)
					if !ok {
						continue
					}
					if b, ok := c.Type().Underlying().(*types.Basic); !ok || b.Info()&types.IsInteger == 0 {
						continue
					}
					cu := &constUse{obj: c, pos: nm.Pos()}
					consts[c] = cu
					order = append(order, cu)
				}
			}
		}
	}
	if len(consts) == 0 {
		return
	}

	// Classify every use of each constant across the whole module.
	for _, up := range p.m.Pkgs {
		for _, f := range up.Files {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return false
				}
				stack = append(stack, n)
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				c, ok := p.m.Info.Uses[id].(*types.Const)
				if !ok {
					return true
				}
				cu, ok := consts[c]
				if !ok {
					return true
				}
				switch parent := nthAncestor(stack, 1).(type) {
				case *ast.CallExpr:
					for _, arg := range parent.Args {
						if arg == ast.Expr(id) {
							cu.argUses++
							break
						}
					}
				case *ast.CaseClause:
					cu.caseUses++
				case *ast.BinaryExpr:
					if parent.Op == token.EQL || parent.Op == token.NEQ {
						cu.caseUses++
					}
				}
				return true
			})
		}
	}

	for _, cu := range order {
		name := cu.obj.Name()
		switch {
		case cu.argUses == 0:
			p.report(cu.pos, wireParityRule, fmt.Sprintf(
				"wire constant %s has no encode/send site (never passed as a call argument)", name))
		case cu.caseUses == 0 && cu.argUses < 2:
			p.report(cu.pos, wireParityRule, fmt.Sprintf(
				"wire constant %s has no dispatch site (never in a switch case, comparison, or second send site)", name))
		}
	}
}

// nthAncestor returns the node n levels above the top of the stack (the
// stack's last element is the current node itself).
func nthAncestor(stack []ast.Node, n int) ast.Node {
	if len(stack) <= n {
		return nil
	}
	return stack[len(stack)-1-n]
}
