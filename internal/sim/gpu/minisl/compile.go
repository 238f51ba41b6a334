package minisl

import (
	"fmt"
	"math"

	"cycada/internal/sim/gpu"
)

// Lowering. Link resolves every name a stage touches to a fixed slot of a
// Frame and turns the stage's AST into a tree of Go closures over that
// frame, once per program. Running a shader is then a chain of closure
// calls with no name lookups and no allocation: expressions return a
// pointer to their result — a variable's own slot, a constant, or a
// temporary slot owned by that expression node — and statements return
// an error.
//
// Slot layout per stage: inputs (attributes, uniforms, varyings and the
// gl_ output, each name once), then locals, then one temporary per
// operator node. A name keeps one slot for the whole invocation, exactly
// like the flat variable namespace the language has always had: a local
// declared inside a branch stays visible after it, and a local or input
// re-declared just overwrites the slot.
//
// Errors stay dynamic. Reading a local before any declaration of it has
// run — because it is declared later, or only in a branch that was not
// taken — fails when the read executes, as does a read of a name declared
// nowhere; per-local "declared yet" flags in the frame track this. The
// step budget is charged once per statement executed, as before.

type (
	exprFn func(f *Frame) (*Value, error)
	stmtFn func(f *Frame) error
)

// inputSource says where an input slot's starting value comes from.
type inputSource uint8

const (
	srcConst     inputSource = iota // the zero value
	srcAttribute                    // attribs[idx], else zero
	srcUniform                      // uniforms[idx], else zero
	srcVarying                      // Value{width, vary[idx]}, else zero
)

type input struct {
	name  string
	src   inputSource
	idx   int
	width int
	zero  Value
	slot  int
}

// code is one lowered stage.
type code struct {
	inputs  []input // one per input slot, the last source written for it
	slots   map[string]int
	nslots  int
	nlocals int
	body    stmtFn
	out     int   // gl_Position or gl_FragColor
	varyOut []int // vertex stage: slot of each Program.VaryNames entry
}

// run loads the inputs into f and executes the stage.
func (c *code) run(f *Frame, attribs, uniforms []Value, vary []gpu.Vec4) error {
	for i := range c.inputs {
		in := &c.inputs[i]
		v := in.zero
		switch in.src {
		case srcAttribute:
			if in.idx < len(attribs) {
				v = attribs[in.idx]
			}
		case srcUniform:
			if in.idx < len(uniforms) {
				v = uniforms[in.idx]
			}
		case srcVarying:
			if in.idx < len(vary) {
				v = Value{Width: in.width, V: vary[in.idx]}
			}
		}
		f.slots[in.slot] = v
	}
	clear(f.def[:c.nlocals])
	f.steps = defaultMaxSteps
	f.fetches = 0
	return c.body(f)
}

// step charges one statement against the budget.
func (f *Frame) step() error {
	if f.steps--; f.steps <= 0 {
		return errStepLimit
	}
	return nil
}

var errStepLimit = &evalError{msg: "shader exceeded step limit"}

// lowerer resolves names and emits closures for one stage.
type lowerer struct {
	c      *code
	locals map[string]int // name -> index into Frame.def
}

// lowerStage resolves sh's names against its inputs (later entries of the
// same name win) and lowers its body.
func lowerStage(sh *Shader, inputs []input, out string) *code {
	c := &code{slots: map[string]int{}}
	byName := map[string]int{}
	for _, in := range inputs {
		if i, ok := byName[in.name]; ok {
			in.slot = c.inputs[i].slot
			c.inputs[i] = in
			continue
		}
		in.slot = c.nslots
		c.slots[in.name] = c.nslots
		c.nslots++
		byName[in.name] = len(c.inputs)
		c.inputs = append(c.inputs, in)
	}
	l := &lowerer{c: c, locals: map[string]int{}}
	l.declareLocals(sh.body)
	c.out = c.slots[out]
	c.body = l.block(sh.body)
	return c
}

// declareLocals gives every name declared anywhere in body, and not an
// input, a slot and a "declared yet" flag.
func (l *lowerer) declareLocals(body []stmt) {
	for _, s := range body {
		switch st := s.(type) {
		case declStmt:
			if _, ok := l.c.slots[st.name]; !ok {
				l.c.slots[st.name] = l.c.nslots
				l.c.nslots++
				l.locals[st.name] = l.c.nlocals
				l.c.nlocals++
			}
		case ifStmt:
			l.declareLocals(st.then)
			l.declareLocals(st.els)
		case forStmt:
			l.declareLocals([]stmt{st.init, st.post})
			l.declareLocals(st.body)
		}
	}
}

// temp allocates an expression node's result slot.
func (l *lowerer) temp() int {
	t := l.c.nslots
	l.c.nslots++
	return t
}

// resolve reports name's slot and its local flag index (-1 for inputs);
// ok is false for a name declared nowhere in the stage.
func (l *lowerer) resolve(name string) (slot, local int, ok bool) {
	slot, ok = l.c.slots[name]
	if !ok {
		return 0, -1, false
	}
	if k, isLocal := l.locals[name]; isLocal {
		return slot, k, true
	}
	return slot, -1, true
}

func (l *lowerer) block(body []stmt) stmtFn {
	fns := make([]stmtFn, len(body))
	for i, s := range body {
		fns[i] = l.stmt(s)
	}
	return func(f *Frame) error {
		for _, fn := range fns {
			if err := fn(f); err != nil {
				return err
			}
		}
		return nil
	}
}

func (l *lowerer) stmt(s stmt) stmtFn {
	switch st := s.(type) {
	case declStmt:
		return l.decl(st)
	case assignStmt:
		return l.assign(st)
	case ifStmt:
		cond, then, els := l.expr(st.cond), l.block(st.then), l.block(st.els)
		return func(f *Frame) error {
			if err := f.step(); err != nil {
				return err
			}
			c, err := cond(f)
			if err != nil {
				return err
			}
			if c.V[0] != 0 {
				return then(f)
			}
			return els(f)
		}
	case forStmt:
		init, cond, post, body := l.stmt(st.init), l.expr(st.cond), l.stmt(st.post), l.block(st.body)
		return func(f *Frame) error {
			if err := f.step(); err != nil {
				return err
			}
			if err := init(f); err != nil {
				return err
			}
			for {
				c, err := cond(f)
				if err != nil {
					return err
				}
				if c.V[0] == 0 {
					return nil
				}
				if err := body(f); err != nil {
					return err
				}
				if err := post(f); err != nil {
					return err
				}
			}
		}
	default:
		err := &evalError{msg: fmt.Sprintf("unknown statement %T", s)}
		return func(f *Frame) error { return err }
	}
}

func (l *lowerer) decl(st declStmt) stmtFn {
	slot, local, _ := l.resolve(st.name)
	zero := Zero(st.typ)
	var init exprFn
	if st.init != nil {
		init = l.expr(st.init)
	}
	typ := st.typ
	return func(f *Frame) error {
		if err := f.step(); err != nil {
			return err
		}
		v := zero
		if init != nil {
			iv, err := init(f)
			if err != nil {
				return err
			}
			v = coerce(*iv, typ)
		}
		f.slots[slot] = v
		if local >= 0 {
			f.def[local] = true
		}
		return nil
	}
}

func (l *lowerer) assign(st assignStmt) stmtFn {
	val := l.expr(st.val)
	slot, local, declared := l.resolve(st.name)
	undeclared := &evalError{line: st.line, msg: "assignment to undeclared " + st.name}
	if !declared {
		return func(f *Frame) error {
			if err := f.step(); err != nil {
				return err
			}
			if _, err := val(f); err != nil {
				return err
			}
			return undeclared
		}
	}
	if st.swizzle != "" {
		var badWrite error
		if len(st.swizzle) != 1 {
			badWrite = &evalError{line: st.line, msg: "only single-component swizzle writes supported"}
		}
		idx := swizzleIndex(rune(st.swizzle[0]))
		return func(f *Frame) error {
			if err := f.step(); err != nil {
				return err
			}
			v, err := val(f)
			if err != nil {
				return err
			}
			if local >= 0 && !f.def[local] {
				return undeclared
			}
			if badWrite != nil {
				return badWrite
			}
			f.slots[slot].V[idx] = v.V[0]
			return nil
		}
	}
	toMatrix := &evalError{line: st.line, msg: "cannot assign scalar to matrix " + st.name}
	return func(f *Frame) error {
		if err := f.step(); err != nil {
			return err
		}
		v, err := val(f)
		if err != nil {
			return err
		}
		if local >= 0 && !f.def[local] {
			return undeclared
		}
		cur := &f.slots[slot]
		if cur.M != nil && v.M == nil {
			return toMatrix
		}
		nv := *v
		if cur.Width > 0 {
			nv = coerceWidth(nv, cur.Width)
		}
		*cur = nv
		return nil
	}
}

func (l *lowerer) expr(x expr) exprFn {
	switch ex := x.(type) {
	case numExpr:
		c := Float(ex.v)
		return func(*Frame) (*Value, error) { return &c, nil }
	case varExpr:
		slot, local, declared := l.resolve(ex.name)
		undefined := &evalError{line: ex.line, msg: "undefined variable " + ex.name}
		switch {
		case !declared:
			return func(*Frame) (*Value, error) { return nil, undefined }
		case local >= 0:
			return func(f *Frame) (*Value, error) {
				if !f.def[local] {
					return nil, undefined
				}
				return &f.slots[slot], nil
			}
		default:
			return func(f *Frame) (*Value, error) { return &f.slots[slot], nil }
		}
	case swizzleExpr:
		return l.swizzle(ex)
	case unaryExpr:
		return l.unary(ex)
	case binExpr:
		return l.binary(ex)
	case callExpr:
		return l.call(ex)
	default:
		err := &evalError{msg: fmt.Sprintf("unknown expression %T", x)}
		return func(*Frame) (*Value, error) { return nil, err }
	}
}

func (l *lowerer) swizzle(ex swizzleExpr) exprFn {
	base, t, n := l.expr(ex.base), l.temp(), len(ex.sw)
	var idx [4]int
	for i, c := range ex.sw {
		idx[i] = swizzleIndex(c)
	}
	return func(f *Frame) (*Value, error) {
		b, err := base(f)
		if err != nil {
			return nil, err
		}
		var out gpu.Vec4
		for i := 0; i < n; i++ {
			out[i] = b.V[idx[i]]
		}
		r := &f.slots[t]
		*r = Value{Width: n, V: out}
		return r, nil
	}
}

func (l *lowerer) unary(ex unaryExpr) exprFn {
	x, t := l.expr(ex.x), l.temp()
	switch ex.op {
	case "-":
		return func(f *Frame) (*Value, error) {
			v, err := x(f)
			if err != nil {
				return nil, err
			}
			r := &f.slots[t]
			*r = Value{Width: v.Width, V: v.V.Scale(-1)}
			return r, nil
		}
	case "!":
		return func(f *Frame) (*Value, error) {
			v, err := x(f)
			if err != nil {
				return nil, err
			}
			r := &f.slots[t]
			*r = truth(v.V[0] == 0)
			return r, nil
		}
	}
	err := &evalError{msg: "unknown unary " + ex.op}
	return func(f *Frame) (*Value, error) {
		if _, xerr := x(f); xerr != nil {
			return nil, xerr
		}
		return nil, err
	}
}

// truth is a comparison's result: 1.0 or 0.0.
func truth(b bool) Value {
	if b {
		return Float(1)
	}
	return Float(0)
}

type binOp uint8

const (
	opLT binOp = iota
	opGT
	opLE
	opGE
	opEQ
	opNE
	opAdd
	opSub
	opMul
	opDiv
	opUnknown
)

var binOps = map[string]binOp{
	"<": opLT, ">": opGT, "<=": opLE, ">=": opGE, "==": opEQ, "!=": opNE,
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv,
}

func (l *lowerer) binary(ex binExpr) exprFn {
	lf, rf, t := l.expr(ex.l), l.expr(ex.r), l.temp()
	op, ok := binOps[ex.op]
	if !ok {
		op = opUnknown
	}
	if op <= opNE {
		return func(f *Frame) (*Value, error) {
			lv, err := lf(f)
			if err != nil {
				return nil, err
			}
			rv, err := rf(f)
			if err != nil {
				return nil, err
			}
			a, b := lv.V[0], rv.V[0]
			var res bool
			switch op {
			case opLT:
				res = a < b
			case opGT:
				res = a > b
			case opLE:
				res = a <= b
			case opGE:
				res = a >= b
			case opEQ:
				res = a == b
			default:
				res = a != b
			}
			r := &f.slots[t]
			*r = truth(res)
			return r, nil
		}
	}
	matOnlyMul := &evalError{line: ex.line, msg: "matrices support only *"}
	vecMat := &evalError{line: ex.line, msg: "vec*mat not supported; use mat*vec"}
	unknown := &evalError{line: ex.line, msg: "unknown operator " + ex.op}
	return func(f *Frame) (*Value, error) {
		lv, err := lf(f)
		if err != nil {
			return nil, err
		}
		rv, err := rf(f)
		if err != nil {
			return nil, err
		}
		r := &f.slots[t]
		// Matrix forms.
		if lv.M != nil || rv.M != nil {
			if op != opMul {
				return nil, matOnlyMul
			}
			switch {
			case lv.M != nil && rv.M != nil:
				*r = Mat(lv.M.MulMat(*rv.M))
			case lv.M != nil:
				*r = Value{Width: 4, V: lv.M.MulVec(rv.Vec4())}
			default:
				return nil, vecMat
			}
			return r, nil
		}
		// Scalar broadcast.
		w := max(lv.Width, rv.Width)
		a, b := broadcast(*lv, w), broadcast(*rv, w)
		var out gpu.Vec4
		switch op {
		case opAdd:
			out = a.Add(b)
		case opSub:
			out = a.Sub(b)
		case opMul:
			out = a.Mul(b)
		case opDiv:
			for i := 0; i < 4; i++ {
				if b[i] != 0 {
					out[i] = a[i] / b[i]
				}
			}
		default:
			return nil, unknown
		}
		*r = Value{Width: w, V: out}
		return r, nil
	}
}

// builtinArity is the argument count each fixed-arity builtin takes, with
// the message a wrong count reports.
var builtinArity = map[string]struct {
	n   int
	msg string
}{
	"texture2D": {2, "needs (sampler, vec2)"},
	"clamp":     {3, "needs 3 args"},
	"min":       {2, "needs 2 args"},
	"max":       {2, "needs 2 args"},
	"pow":       {2, "needs 2 args"},
	"dot":       {2, "needs 2 args"},
	"mix":       {3, "needs 3 args"},
	"fract":     {1, "needs 1 arg"},
	"floor":     {1, "needs 1 arg"},
	"abs":       {1, "needs 1 arg"},
	"sin":       {1, "needs 1 arg"},
	"cos":       {1, "needs 1 arg"},
	"length":    {1, "needs 1 arg"},
	"normalize": {1, "needs 1 arg"},
}

func (l *lowerer) call(ex callExpr) exprFn {
	args := make([]exprFn, len(ex.args))
	for i, a := range ex.args {
		args[i] = l.expr(a)
	}
	t := l.temp()
	bad := func(msg string) exprFn {
		err := &evalError{line: ex.line, msg: ex.fn + ": " + msg}
		// Every argument still runs first, so its own error (or a texture
		// fetch it makes) comes before the call's.
		return func(f *Frame) (*Value, error) {
			for _, a := range args {
				if _, aerr := a(f); aerr != nil {
					return nil, aerr
				}
			}
			return nil, err
		}
	}
	switch ex.fn {
	case "vec2", "vec3", "vec4":
		return l.construct(ex, args, t)
	}
	ar, ok := builtinArity[ex.fn]
	if !ok {
		return bad("unknown function")
	}
	if len(args) != ar.n {
		return bad(ar.msg)
	}
	fn := builtinFn(ex.fn)
	switch ar.n {
	case 1:
		a0 := args[0]
		return func(f *Frame) (*Value, error) {
			x, err := a0(f)
			if err != nil {
				return nil, err
			}
			r := &f.slots[t]
			*r = fn(f, x, nil, nil)
			return r, nil
		}
	case 2:
		a0, a1 := args[0], args[1]
		return func(f *Frame) (*Value, error) {
			x, err := a0(f)
			if err != nil {
				return nil, err
			}
			y, err := a1(f)
			if err != nil {
				return nil, err
			}
			r := &f.slots[t]
			*r = fn(f, x, y, nil)
			return r, nil
		}
	default:
		a0, a1, a2 := args[0], args[1], args[2]
		return func(f *Frame) (*Value, error) {
			x, err := a0(f)
			if err != nil {
				return nil, err
			}
			y, err := a1(f)
			if err != nil {
				return nil, err
			}
			z, err := a2(f)
			if err != nil {
				return nil, err
			}
			r := &f.slots[t]
			*r = fn(f, x, y, z)
			return r, nil
		}
	}
}

// construct lowers vec2/vec3/vec4: a single scalar argument splats;
// otherwise components are taken in order until the vector is full, and
// too few is a runtime error.
func (l *lowerer) construct(ex callExpr, args []exprFn, t int) exprFn {
	w := int(ex.fn[3] - '0')
	splat := len(args) == 1
	fn := ex.fn
	line := ex.line
	return func(f *Frame) (*Value, error) {
		var comps gpu.Vec4
		n := 0
		for _, a := range args {
			v, err := a(f)
			if err != nil {
				return nil, err
			}
			aw := v.Width
			if aw == 0 {
				aw = 1
			}
			if splat && aw == 1 {
				for ; n < w; n++ {
					comps[n] = v.V[0]
				}
				break
			}
			for i := 0; i < aw && n < w; i++ {
				comps[n] = v.V[i]
				n++
			}
		}
		if n < w {
			return nil, &evalError{line: line, msg: fn + ": " + fmt.Sprintf("needs %d components, got %d", w, n)}
		}
		r := &f.slots[t]
		*r = Value{Width: w, V: comps}
		return r, nil
	}
}

// builtinFn returns the body of a fixed-arity builtin; unused trailing
// arguments are nil.
func builtinFn(name string) func(f *Frame, x, y, z *Value) Value {
	switch name {
	case "texture2D":
		return func(f *Frame, s, uv, _ *Value) Value {
			f.fetches++
			return Value{Width: 4, V: s.Sampler.Sample(uv.V[0], uv.V[1])}
		}
	case "clamp":
		return func(_ *Frame, x, lo, hi *Value) Value {
			var out gpu.Vec4
			for i := 0; i < 4; i++ {
				out[i] = minf(maxf(x.V[i], lo.V[0]), hi.V[0])
			}
			return Value{Width: x.Width, V: out}
		}
	case "min", "max", "pow":
		var op func(a, b float32) float32
		switch name {
		case "min":
			op = minf
		case "max":
			op = maxf
		default:
			op = func(a, b float32) float32 { return float32(math.Pow(float64(a), float64(b))) }
		}
		return func(_ *Frame, x, y, _ *Value) Value {
			w := x.Width
			a, b := broadcast(*x, w), broadcast(*y, w)
			var out gpu.Vec4
			for i := 0; i < 4; i++ {
				out[i] = op(a[i], b[i])
			}
			return Value{Width: w, V: out}
		}
	case "dot":
		return func(_ *Frame, x, y, _ *Value) Value {
			var s float32
			for i := 0; i < x.Width; i++ {
				s += x.V[i] * y.V[i]
			}
			return Float(s)
		}
	case "mix":
		return func(_ *Frame, x, y, a *Value) Value {
			t := a.V[0]
			w := x.Width
			return Value{Width: w, V: x.V.Scale(1 - t).Add(broadcast(*y, w).Scale(t))}
		}
	case "fract", "floor", "abs", "sin", "cos":
		var op func(float64) float64
		switch name {
		case "fract":
			op = func(v float64) float64 { return v - math.Floor(v) }
		case "floor":
			op = math.Floor
		case "abs":
			op = math.Abs
		case "sin":
			op = math.Sin
		default:
			op = math.Cos
		}
		return func(_ *Frame, x, _, _ *Value) Value {
			var out gpu.Vec4
			for i := 0; i < 4; i++ {
				out[i] = float32(op(float64(x.V[i])))
			}
			return Value{Width: x.Width, V: out}
		}
	case "length":
		return func(_ *Frame, x, _, _ *Value) Value {
			return Float(float32(math.Sqrt(sumSquares(x))))
		}
	default: // normalize
		return func(_ *Frame, x, _, _ *Value) Value {
			n := float32(math.Sqrt(sumSquares(x)))
			if n == 0 {
				return *x
			}
			return Value{Width: x.Width, V: x.V.Scale(1 / n)}
		}
	}
}

// sumSquares is the float64 sum of squares over x's components.
func sumSquares(x *Value) float64 {
	var s float64
	for i := 0; i < x.Width; i++ {
		s += float64(x.V[i]) * float64(x.V[i])
	}
	return s
}
