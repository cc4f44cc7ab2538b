package analysislint

import (
	"go/ast"
	"go/token"
	"strings"
)

// The //botlint: directive family:
//
//	//botlint:ignore <rule> -- <reason>   suppress <rule> on this or the next line
//	//botlint:sorted [-- <reason>]        justify a map range within 2 lines below
//	//botlint:holds <mu>                  (func doc) callers must hold <mu>
//	//botlint:guarded-by <mu>             (field doc/comment) accesses must hold <mu>
//	//botlint:hotpath                     (func doc) zero-alloc hygiene rules apply
//	//botlint:wire-skip [p] -- <reason>   (field or func doc) exempt field/param p
//	                                      from wireparity field matching
const directivePrefix = "//botlint:"

// ignoreDirective is one //botlint:ignore comment.
type ignoreDirective struct {
	pos    token.Position
	rule   string
	reason string
	used   bool
}

// sortedDirective is one //botlint:sorted comment.
type sortedDirective struct {
	pos  token.Position
	used bool
}

// fileDirectives indexes the line-anchored directives of one file.
type fileDirectives struct {
	ignores []*ignoreDirective
	sorted  []*sortedDirective
}

// ignoreAt returns the ignore directive covering (rule, line): one written
// on the same line or on the line directly above.
func (fd *fileDirectives) ignoreAt(rule string, line int) *ignoreDirective {
	for _, ig := range fd.ignores {
		if ig.rule == rule && (ig.pos.Line == line || ig.pos.Line == line-1) {
			return ig
		}
	}
	return nil
}

// sortedAt returns the sorted directive covering a map range at line: one
// written on the same line or up to two lines above (comment, then an
// optional sort statement, then the range).
func (fd *fileDirectives) sortedAt(line int) *sortedDirective {
	for _, sd := range fd.sorted {
		if sd.pos.Line <= line && line-sd.pos.Line <= 2 {
			return sd
		}
	}
	return nil
}

// parseFileDirectives collects the line-anchored directives of f.
func parseFileDirectives(fset *token.FileSet, f *ast.File) *fileDirectives {
	fd := &fileDirectives{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			verb, args, ok := splitDirective(c.Text)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			switch verb {
			case "ignore":
				rule, reason := splitReason(args)
				fd.ignores = append(fd.ignores, &ignoreDirective{pos: pos, rule: rule, reason: reason})
			case "sorted":
				fd.sorted = append(fd.sorted, &sortedDirective{pos: pos})
			}
		}
	}
	return fd
}

// splitDirective parses "//botlint:verb args" into its verb and argument
// string. ok is false for ordinary comments.
func splitDirective(text string) (verb, args string, ok bool) {
	rest, ok := strings.CutPrefix(text, directivePrefix)
	if !ok {
		return "", "", false
	}
	verb, args, _ = strings.Cut(rest, " ")
	return strings.TrimSpace(verb), strings.TrimSpace(args), true
}

// splitReason parses `<rule> -- <reason>`: the rule is the first
// whitespace-separated field, the reason everything after the `--`
// separator ("" when absent).
func splitReason(args string) (rule, reason string) {
	head, tail, found := strings.Cut(args, "--")
	if fields := strings.Fields(head); len(fields) > 0 {
		rule = fields[0]
	}
	if found {
		reason = strings.TrimSpace(tail)
	}
	return rule, reason
}

// docDirective scans a declaration's doc comment for a //botlint:<verb>
// directive and returns its argument string.
func docDirective(doc *ast.CommentGroup, verb string) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		v, args, ok := splitDirective(c.Text)
		if ok && v == verb {
			return args, true
		}
	}
	return "", false
}

// docDirectives scans a declaration's doc comment for every
// //botlint:<verb> directive and returns their argument strings (a func
// doc may carry several //botlint:wire-skip lines, one per parameter).
func docDirectives(doc *ast.CommentGroup, verb string) []string {
	if doc == nil {
		return nil
	}
	var out []string
	for _, c := range doc.List {
		v, args, ok := splitDirective(c.Text)
		if ok && v == verb {
			out = append(out, args)
		}
	}
	return out
}

// fieldDirective scans a struct field's doc or trailing comment for a
// directive.
func fieldDirective(field *ast.Field, verb string) (string, bool) {
	if args, ok := docDirective(field.Doc, verb); ok {
		return args, ok
	}
	return docDirective(field.Comment, verb)
}

// fieldDirectivePos returns the position of the field's <verb> directive
// comment, for diagnostics anchored at the directive itself.
func fieldDirectivePos(field *ast.Field, verb string) (token.Pos, bool) {
	for _, doc := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			if v, _, ok := splitDirective(c.Text); ok && v == verb {
				return c.Pos(), true
			}
		}
	}
	return token.NoPos, false
}
