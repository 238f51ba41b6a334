// Package minisl implements MiniSL, a small GLSL-ES-like shading language
// for the simulated GPU's programmable (GLES 2) pipeline.
//
// The real system hands shader source to a closed vendor compiler inside
// libGLESv2; the simulation compiles a GLSL subset to an AST, and Link
// resolves every name to a fixed slot and lowers each stage once to Go
// closures that run per vertex and per fragment over a reusable Frame
// (compile.go). This keeps glCompileShader/glLinkProgram charged in
// proportion to token count (the glLinkProgram spike in Figure 9) and makes
// shader-based paths such as Cycada's presentRenderbuffer blit do real
// per-pixel work, without a heap allocation per pixel.
//
// Supported subset: global declarations with the attribute / uniform /
// varying qualifiers; types float, vec2, vec3, vec4, mat4, sampler2D;
// `void main() { ... }`; local declarations, assignment, if/else, for;
// arithmetic on scalars/vectors/matrices with scalar broadcast; swizzle
// reads; calls to the builtins texture2D, vec2, vec3, vec4, clamp, min, max,
// dot, mix, fract, floor, abs, sin, cos, pow, length, normalize; and the
// specials gl_Position (vertex) and gl_FragColor (fragment). A `precision`
// statement is accepted and ignored.
package minisl

import (
	"fmt"
	"strings"
	"unicode"
)

// Kind distinguishes vertex and fragment shaders.
type Kind uint8

// Shader kinds.
const (
	Vertex Kind = iota + 1
	Fragment
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == Vertex {
		return "vertex"
	}
	return "fragment"
}

// Decl is a global declaration (attribute/uniform/varying).
type Decl struct {
	Name string
	Type string // "float", "vec2".."vec4", "mat4", "sampler2D"
}

// Shader is a compiled shader.
type Shader struct {
	Kind       Kind
	Attributes []Decl
	Uniforms   []Decl
	Varyings   []Decl
	Tokens     int // total token count (drives compile cost)
	body       []stmt
	src        string
}

// Source returns the original source text.
func (s *Shader) Source() string { return s.src }

// CompileError is a shader compilation failure with a GLES-style info log.
type CompileError struct {
	Line int
	Msg  string
}

func (e *CompileError) Error() string {
	return fmt.Sprintf("ERROR: 0:%d: %s", e.Line, e.Msg)
}

// ---- AST ----

type stmt interface{ isStmt() }

type declStmt struct {
	name string
	typ  string
	init expr // may be nil
}

type assignStmt struct {
	name    string
	swizzle string // optional single-component write target, e.g. "x"
	val     expr
	line    int
}

type ifStmt struct {
	cond      expr
	then, els []stmt
}

type forStmt struct {
	init stmt
	cond expr
	post stmt
	body []stmt
}

func (declStmt) isStmt()   {}
func (assignStmt) isStmt() {}
func (ifStmt) isStmt()     {}
func (forStmt) isStmt()    {}

type expr interface{ isExpr() }

type numExpr struct{ v float32 }

type varExpr struct {
	name string
	line int
}

type swizzleExpr struct {
	base expr
	sw   string
	line int
}

type binExpr struct {
	op   string
	l, r expr
	line int
}

type unaryExpr struct {
	op string
	x  expr
}

type callExpr struct {
	fn   string
	args []expr
	line int
}

func (numExpr) isExpr()     {}
func (varExpr) isExpr()     {}
func (swizzleExpr) isExpr() {}
func (binExpr) isExpr()     {}
func (unaryExpr) isExpr()   {}
func (callExpr) isExpr()    {}

// ---- Lexer ----

type token struct {
	kind string // "ident", "num", "punct", "eof"
	text string
	num  float32
	line int
}

type lexer struct {
	src  []rune
	pos  int
	line int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: []rune(src), line: 1}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case unicode.IsSpace(c):
			l.pos++
		case c == '/' && l.peek(1) == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.peek(1) == '*':
			l.pos += 2
			for l.pos < len(l.src) && !(l.src[l.pos] == '*' && l.peek(1) == '/') {
				if l.src[l.pos] == '\n' {
					l.line++
				}
				l.pos++
			}
			l.pos += 2
		case unicode.IsLetter(c) || c == '_':
			start := l.pos
			for l.pos < len(l.src) && (unicode.IsLetter(l.src[l.pos]) || unicode.IsDigit(l.src[l.pos]) || l.src[l.pos] == '_') {
				l.pos++
			}
			l.emit("ident", string(l.src[start:l.pos]), 0)
		case unicode.IsDigit(c) || (c == '.' && unicode.IsDigit(l.peek(1))):
			start := l.pos
			for l.pos < len(l.src) && (unicode.IsDigit(l.src[l.pos]) || l.src[l.pos] == '.') {
				l.pos++
			}
			var f float64
			if _, err := fmt.Sscanf(string(l.src[start:l.pos]), "%g", &f); err != nil {
				return nil, &CompileError{Line: l.line, Msg: "bad number " + string(l.src[start:l.pos])}
			}
			l.emit("num", string(l.src[start:l.pos]), float32(f))
		default:
			two := ""
			if l.pos+1 < len(l.src) {
				two = string(l.src[l.pos : l.pos+2])
			}
			switch two {
			case "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "++", "--":
				l.emit("punct", two, 0)
				l.pos += 2
				continue
			}
			switch c {
			case '+', '-', '*', '/', '(', ')', '{', '}', ';', ',', '.', '=', '<', '>', '!':
				l.emit("punct", string(c), 0)
				l.pos++
			default:
				return nil, &CompileError{Line: l.line, Msg: fmt.Sprintf("unexpected character %q", c)}
			}
		}
	}
	l.emit("eof", "", 0)
	return l.toks, nil
}

func (l *lexer) peek(n int) rune {
	if l.pos+n < len(l.src) {
		return l.src[l.pos+n]
	}
	return 0
}

func (l *lexer) emit(kind, text string, num float32) {
	l.toks = append(l.toks, token{kind: kind, text: text, num: num, line: l.line})
}

// ---- Parser ----

type parser struct {
	toks []token
	pos  int
	sh   *Shader
}

var typeNames = map[string]bool{
	"float": true, "vec2": true, "vec3": true, "vec4": true,
	"mat4": true, "sampler2D": true,
}

// Compile compiles MiniSL source into a Shader.
func Compile(src string, kind Kind) (*Shader, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, sh: &Shader{Kind: kind, Tokens: len(toks), src: src}}
	if err := p.parseTop(); err != nil {
		return nil, err
	}
	return p.sh, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) accept(kind, text string) bool {
	if p.cur().kind == kind && p.cur().text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind, text string) (token, error) {
	t := p.cur()
	if t.kind != kind || (text != "" && t.text != text) {
		return t, &CompileError{Line: t.line, Msg: fmt.Sprintf("expected %q, found %q", text, t.text)}
	}
	p.pos++
	return t, nil
}

func (p *parser) parseTop() error {
	for p.cur().kind != "eof" {
		t := p.cur()
		switch {
		case t.text == "precision":
			for p.cur().kind != "eof" && !p.accept("punct", ";") {
				p.pos++
			}
		case t.text == "attribute" || t.text == "uniform" || t.text == "varying":
			qual := p.next().text
			typ, err := p.expect("ident", "")
			if err != nil {
				return err
			}
			if !typeNames[typ.text] {
				return &CompileError{Line: typ.line, Msg: "unknown type " + typ.text}
			}
			name, err := p.expect("ident", "")
			if err != nil {
				return err
			}
			if _, err := p.expect("punct", ";"); err != nil {
				return err
			}
			d := Decl{Name: name.text, Type: typ.text}
			switch qual {
			case "attribute":
				if p.sh.Kind != Vertex {
					return &CompileError{Line: name.line, Msg: "attribute in fragment shader"}
				}
				p.sh.Attributes = append(p.sh.Attributes, d)
			case "uniform":
				p.sh.Uniforms = append(p.sh.Uniforms, d)
			case "varying":
				p.sh.Varyings = append(p.sh.Varyings, d)
			}
		case t.text == "void":
			p.pos++
			if _, err := p.expect("ident", "main"); err != nil {
				return err
			}
			if _, err := p.expect("punct", "("); err != nil {
				return err
			}
			if _, err := p.expect("punct", ")"); err != nil {
				return err
			}
			body, err := p.parseBlock()
			if err != nil {
				return err
			}
			p.sh.body = body
		default:
			return &CompileError{Line: t.line, Msg: "unexpected token " + t.text}
		}
	}
	if p.sh.body == nil {
		return &CompileError{Line: 1, Msg: "no main function"}
	}
	return nil
}

func (p *parser) parseBlock() ([]stmt, error) {
	if _, err := p.expect("punct", "{"); err != nil {
		return nil, err
	}
	var out []stmt
	for !p.accept("punct", "}") {
		if p.cur().kind == "eof" {
			return nil, &CompileError{Line: p.cur().line, Msg: "unterminated block"}
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (p *parser) parseStmt() (stmt, error) {
	t := p.cur()
	switch {
	case t.text == "if":
		p.pos++
		if _, err := p.expect("punct", "("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("punct", ")"); err != nil {
			return nil, err
		}
		then, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		var els []stmt
		if p.accept("ident", "else") {
			els, err = p.parseBlock()
			if err != nil {
				return nil, err
			}
		}
		return ifStmt{cond: cond, then: then, els: els}, nil
	case t.text == "for":
		p.pos++
		if _, err := p.expect("punct", "("); err != nil {
			return nil, err
		}
		init, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("punct", ";"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("punct", ";"); err != nil {
			return nil, err
		}
		post, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("punct", ")"); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return forStmt{init: init, cond: cond, post: post, body: body}, nil
	default:
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("punct", ";"); err != nil {
			return nil, err
		}
		return s, nil
	}
}

// parseSimpleStmt parses a declaration or assignment without the trailing
// semicolon (shared by for-headers and expression statements).
func (p *parser) parseSimpleStmt() (stmt, error) {
	t := p.cur()
	if typeNames[t.text] {
		typ := p.next().text
		name, err := p.expect("ident", "")
		if err != nil {
			return nil, err
		}
		var init expr
		if p.accept("punct", "=") {
			init, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		return declStmt{name: name.text, typ: typ, init: init}, nil
	}
	name, err := p.expect("ident", "")
	if err != nil {
		return nil, err
	}
	sw := ""
	if p.accept("punct", ".") {
		swt, err := p.expect("ident", "")
		if err != nil {
			return nil, err
		}
		sw = swt.text
	}
	// Compound assignment and increment forms.
	op := p.cur().text
	switch op {
	case "=", "+=", "-=", "*=", "/=":
		p.pos++
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if op != "=" {
			val = binExpr{op: op[:1], l: varExpr{name: name.text, line: name.line}, r: val, line: name.line}
		}
		return assignStmt{name: name.text, swizzle: sw, val: val, line: name.line}, nil
	case "++", "--":
		p.pos++
		o := "+"
		if op == "--" {
			o = "-"
		}
		return assignStmt{
			name: name.text, swizzle: sw, line: name.line,
			val: binExpr{op: o, l: varExpr{name: name.text, line: name.line}, r: numExpr{v: 1}, line: name.line},
		}, nil
	}
	return nil, &CompileError{Line: name.line, Msg: "expected assignment after " + name.text}
}

// Expression grammar: cmp > addsub > muldiv > unary > postfix > primary.
func (p *parser) parseExpr() (expr, error) { return p.parseCmp() }

func (p *parser) parseCmp() (expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for {
		op := p.cur().text
		if p.cur().kind != "punct" || (op != "<" && op != ">" && op != "<=" && op != ">=" && op != "==" && op != "!=") {
			return l, nil
		}
		line := p.next().line
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		l = binExpr{op: op, l: l, r: r, line: line}
	}
}

func (p *parser) parseAdd() (expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		op := p.cur().text
		if p.cur().kind != "punct" || (op != "+" && op != "-") {
			return l, nil
		}
		line := p.next().line
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = binExpr{op: op, l: l, r: r, line: line}
	}
}

func (p *parser) parseMul() (expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.cur().text
		if p.cur().kind != "punct" || (op != "*" && op != "/") {
			return l, nil
		}
		line := p.next().line
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = binExpr{op: op, l: l, r: r, line: line}
	}
}

func (p *parser) parseUnary() (expr, error) {
	if p.cur().kind == "punct" && (p.cur().text == "-" || p.cur().text == "!") {
		op := p.next().text
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return unaryExpr{op: op, x: x}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.accept("punct", ".") {
		sw, err := p.expect("ident", "")
		if err != nil {
			return nil, err
		}
		if !validSwizzle(sw.text) {
			return nil, &CompileError{Line: sw.line, Msg: "invalid swizzle ." + sw.text}
		}
		e = swizzleExpr{base: e, sw: sw.text, line: sw.line}
	}
	return e, nil
}

func (p *parser) parsePrimary() (expr, error) {
	t := p.cur()
	switch {
	case t.kind == "num":
		p.pos++
		return numExpr{v: t.num}, nil
	case t.kind == "ident":
		p.pos++
		if p.accept("punct", "(") {
			var args []expr
			if !p.accept("punct", ")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.accept("punct", ")") {
						break
					}
					if _, err := p.expect("punct", ","); err != nil {
						return nil, err
					}
				}
			}
			return callExpr{fn: t.text, args: args, line: t.line}, nil
		}
		return varExpr{name: t.text, line: t.line}, nil
	case t.kind == "punct" && t.text == "(":
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("punct", ")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, &CompileError{Line: t.line, Msg: "unexpected token " + t.text}
	}
}

func validSwizzle(s string) bool {
	if len(s) == 0 || len(s) > 4 {
		return false
	}
	return strings.Trim(s, "xyzwrgba") == ""
}
