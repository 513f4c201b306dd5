package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// IagoFlowAnalyzer guards the shim's Iago discipline (internal/shim): every
// kernel-controlled syscall return is a potential lie, so a value returned
// by one of the untrusted UserCtx entry points must flow through the
// matching validator before any other use — and the error slot of those
// calls must pass through validateErrno before it can propagate. A shim
// path that dereferences, registers, or returns an unvalidated kernel value
// is exactly the bug class Checkoway & Shacham's Iago attacks exploit.
//
// The analysis is per-function and flow-approximate: within the function
// that receives a kernel return, the first call to the required validator
// with the returned variable as an argument sanitizes it; any use at an
// earlier position (or a function with no such call at all) is reported.
var IagoFlowAnalyzer = &Analyzer{
	Name: "iagoflow",
	Doc:  "require shim validation of kernel-returned values before use (Iago defense)",
	Run:  runIagoFlow,
}

// iagoUntrusted maps the UserCtx entry points whose value results are
// kernel-controlled to the validator that must sanitize them. Entry points
// not listed here either return no attacker-useful value (Close, Yield) or
// are covered by other disciplines.
var iagoUntrusted = map[string]string{
	"Sbrk":      "validateHeapBrk",
	"Alloc":     "validateMappedBase",
	"ShmAttach": "validateMappedBase",
	"MmapFile":  "validateMappedBase",
	"Read":      "validateXferCount",
	"Write":     "validateXferCount",
	"Pread":     "validateXferCount",
	"Pwrite":    "validateXferCount",
	"Transfer":  "validateXferCount",
	"Open":      "validateNewFD",
	"Dup":       "validateNewFD",
	"Pipe":      "validateNewFD",
}

func runIagoFlow(pass *Pass) {
	if pass.Pkg.Path != "overshadow/internal/shim" {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkIagoFunc(pass, fn)
		}
	}
}

// kernelReturn is one tracked binding: a variable holding a value (or errno)
// the kernel controls, with the validator that must see it first.
type kernelReturn struct {
	obj       types.Object
	name      string // variable name, for messages
	method    string // uc.<method> that produced it
	validator string
	call      *ast.CallExpr
	isErr     bool
}

// checkIagoFunc runs the per-function flow check.
func checkIagoFunc(pass *Pass, fn *ast.FuncDecl) {
	var tracked []*kernelReturn
	// Pass 1: find `v, err := s.uc.M(...)` bindings for untrusted M.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		method, ok := iagoUCCall(call)
		if !ok {
			return true
		}
		validator := iagoUntrusted[method]
		results := resultTypes(pass, call)
		if len(results) != len(assign.Lhs) {
			return true
		}
		for i, lhs := range assign.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pass.Pkg.Info.ObjectOf(id)
			if obj == nil {
				continue
			}
			kr := &kernelReturn{
				obj: obj, name: id.Name, method: method,
				validator: validator, call: call,
			}
			if isErrorLike(results[i]) {
				kr.isErr = true
				kr.validator = "validateErrno"
			}
			tracked = append(tracked, kr)
		}
		return true
	})
	if len(tracked) == 0 {
		return
	}
	for _, kr := range tracked {
		checkIagoBinding(pass, fn, kr)
	}
}

// iagoUCCall matches `<recv>.uc.M(...)` for an untrusted M and returns M.
func iagoUCCall(call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if _, untrusted := iagoUntrusted[sel.Sel.Name]; !untrusted {
		return "", false
	}
	recv, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok || recv.Sel.Name != "uc" {
		return "", false
	}
	return sel.Sel.Name, true
}

// checkIagoBinding enforces sanitize-before-use for one tracked variable.
func checkIagoBinding(pass *Pass, fn *ast.FuncDecl, kr *kernelReturn) {
	sanitize := token.NoPos
	var sanitizeCalls []*ast.CallExpr
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if calleeName(call) != kr.validator {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok &&
				pass.Pkg.Info.ObjectOf(id) == kr.obj {
				sanitizeCalls = append(sanitizeCalls, call)
				if sanitize == token.NoPos || call.Pos() < sanitize {
					sanitize = call.Pos()
				}
			}
		}
		return true
	})
	if sanitize == token.NoPos {
		if kr.isErr {
			pass.Report(kr.call.Pos(),
				"kernel errno %s from uc.%s propagates without validateErrno", kr.name, kr.method)
		} else {
			pass.Report(kr.call.Pos(),
				"kernel-returned value %s from uc.%s is never validated: call %s before use",
				kr.name, kr.method, kr.validator)
		}
		return
	}
	if kr.isErr {
		// Existence is enough for the errno slot: nil-checks and error
		// returns on the honest path are not dereferences.
		return
	}
	// Any use of the value before the first sanitizing call is a
	// dereference of a potential lie. The binding itself and arguments of
	// sanitizing calls are not uses.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || pass.Pkg.Info.ObjectOf(id) != kr.obj {
			return true
		}
		if id.Pos() >= sanitize || withinNode(kr.call, id.Pos()) || id.Pos() < kr.call.Pos() {
			return true
		}
		for _, sc := range sanitizeCalls {
			if withinNode(sc, id.Pos()) {
				return true
			}
		}
		if isBindingLhs(fn, kr, id) {
			return true
		}
		pass.Report(id.Pos(),
			"kernel-returned value %s from uc.%s used before %s validates it",
			kr.name, kr.method, kr.validator)
		return true
	})
}

// withinNode reports whether pos falls inside n's source range.
func withinNode(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos < n.End()
}

// isBindingLhs reports whether id is the left-hand side of the assignment
// that bound kr (the definition itself, not a use).
func isBindingLhs(fn *ast.FuncDecl, kr *kernelReturn, id *ast.Ident) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 || ast.Unparen(assign.Rhs[0]) != ast.Node(kr.call) {
			return true
		}
		for _, lhs := range assign.Lhs {
			if lhs == ast.Expr(id) {
				found = true
			}
		}
		return false
	})
	return found
}
