// Package lockheld flags mutexes held across blocking operations or log
// calls, plus locks copied by value.
//
// A sync.Mutex guards shared state for nanoseconds; the moment a
// blocking operation — a channel send or receive, WaitGroup.Wait,
// time.Sleep, network I/O — executes between Lock and Unlock, every
// other goroutine contending for that state stalls for the full
// duration, and a receive that never fires turns the whole process into
// a deadlock. A log/slog call is one more such operation: handlers
// format and write I/O, and serialising that under a lock turns a
// diagnostic into a contention point. The analyzer walks each
// function's control-flow graph forward (cfg.Walk) from every
// Lock/RLock call until the matching Unlock and reports every blocking
// node and every log call the walk reaches, each on its own, so a
// suppressed finding never hides a later one in the same region. Sends
// and receives that are comm cases of a select with a default clause
// are exempt (they cannot block by construction), as are nested
// function literals (they run on their own goroutine or call). A second
// Lock of the same mutex while it is held — a guaranteed self-deadlock
// — is reported as well.
//
// Separately, value receivers and parameters whose type directly or
// transitively contains a sync.Mutex/RWMutex are flagged: copying a
// locked mutex forks its state and both copies stop excluding anyone.
package lockheld

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"asiccloud/internal/analysis"
	"asiccloud/internal/analysis/cfg"
)

// Analyzer is the lockheld analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockheld",
	Doc: "flags mutexes held across blocking operations (channel ops, Wait, Sleep, network I/O) " +
		"or log/slog calls, and mutex-bearing types passed by value",
	Match: func(pkgPath string) bool {
		return strings.Contains(pkgPath, "internal/") || strings.Contains(pkgPath, "cmd/")
	},
	Run: run,
}

// lockMethods maps the acquiring method (by its go/types full name) to
// the releasing method name on the same receiver expression.
var lockMethods = map[string]string{
	"(*sync.Mutex).Lock":    "Unlock",
	"(*sync.RWMutex).Lock":  "Unlock",
	"(*sync.RWMutex).RLock": "RUnlock",
}

// blockingCalls lists callees (by full name) that block the calling
// goroutine for an unbounded or scheduler-visible duration.
var blockingCalls = map[string]string{
	"(*sync.WaitGroup).Wait":  "WaitGroup.Wait",
	"(*sync.Cond).Wait":       "Cond.Wait",
	"time.Sleep":              "time.Sleep",
	"net.Dial":                "net.Dial",
	"net.DialTimeout":         "net.DialTimeout",
	"net.Listen":              "net.Listen",
	"(net.Listener).Accept":   "Accept",
	"(net.Conn).Read":         "net.Conn.Read",
	"(net.Conn).Write":        "net.Conn.Write",
	"(*net/http.Client).Do":   "http.Client.Do",
	"(*net/http.Client).Get":  "http.Client.Get",
	"(*net/http.Client).Post": "http.Client.Post",
	"net/http.Get":            "http.Get",
	"net/http.Post":           "http.Post",
	"(*os/exec.Cmd).Run":      "exec.Cmd.Run",
	"(*os/exec.Cmd).Wait":     "exec.Cmd.Wait",
}

// logCalls names the log/slog entry points, as package functions and as
// *slog.Logger methods, that a lock region must not reach.
var logCalls = map[string]bool{
	"Debug": true, "Info": true, "Warn": true, "Error": true,
	"DebugContext": true, "InfoContext": true, "WarnContext": true, "ErrorContext": true,
	"Log": true, "LogAttrs": true, "With": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkByValue(pass, n)
				if n.Body != nil {
					checkFunc(pass, n, n.Body)
				}
			case *ast.FuncLit:
				checkFunc(pass, n, n.Body)
			}
			return true
		})
	}
	return nil
}

// checkFunc walks fn's CFG from every lock acquisition.
func checkFunc(pass *analysis.Pass, fn ast.Node, body *ast.BlockStmt) {
	// Sends/receives that are comm cases of a select with a default
	// clause cannot block; collect those statements up front.
	nonblocking := make(map[ast.Stmt]bool)
	// The X of a range-over-channel appears as a bare expression node in
	// the loop-head block; mark them so they read as receives.
	rangeChan := make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // literals get their own checkFunc
		case *ast.SelectStmt:
			hasDefault := false
			for _, cs := range n.Body.List {
				if cs.(*ast.CommClause).Comm == nil {
					hasDefault = true
				}
			}
			if hasDefault {
				for _, cs := range n.Body.List {
					if comm := cs.(*ast.CommClause).Comm; comm != nil {
						nonblocking[comm] = true
					}
				}
			}
		case *ast.RangeStmt:
			if _, ok := typeUnder(pass.TypeOf(n.X)).(*types.Chan); ok {
				rangeChan[n.X] = true
			}
		}
		return true
	})

	g := pass.CFG(fn)
	for _, b := range g.Blocks {
		for i, node := range b.Nodes {
			if recv, release, ok := lockAcquisition(pass, node); ok {
				scanHeld(pass, b, i, recv, release, nonblocking, rangeChan)
			}
		}
	}
}

// lockAcquisition matches `x.Lock()` / `x.RLock()` statements and
// returns the receiver's identity (its printed expression) and the name
// of the releasing method.
func lockAcquisition(pass *analysis.Pass, node ast.Node) (recv, release string, ok bool) {
	call, sel, ok := methodStmt(node)
	if !ok {
		return "", "", false
	}
	fn := pass.Callee(call)
	if fn == nil {
		return "", "", false
	}
	release, ok = lockMethods[fn.FullName()]
	if !ok {
		return "", "", false
	}
	return types.ExprString(sel.X), release, true
}

// releases reports whether node is the statement `recv.release()`. A
// deferred release keeps the lock held to function return, so it does
// not count.
func releases(node ast.Node, recv, release string) bool {
	_, sel, ok := methodStmt(node)
	return ok && sel.Sel.Name == release && types.ExprString(sel.X) == recv
}

// methodStmt matches a statement of the form `x.m(...)`.
func methodStmt(node ast.Node) (*ast.CallExpr, *ast.SelectorExpr, bool) {
	es, ok := node.(*ast.ExprStmt)
	if !ok {
		return nil, nil, false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return nil, nil, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return call, sel, ok
}

// scanHeld walks forward from the acquisition at node i of block b,
// ending each path where it releases recv, and reports every blocking
// operation and every log call reached while recv is held.
func scanHeld(pass *analysis.Pass, b *cfg.Block, i int, recv, release string,
	nonblocking map[ast.Stmt]bool, rangeChan map[ast.Expr]bool) {

	cfg.Walk(b, i, func(node ast.Node) bool {
		if releases(node, recv, release) {
			return true
		}
		if msg, pos, found := blockingOp(pass, node, recv, nonblocking, rangeChan); found {
			pass.Reportf(pos, "%s is held across %s; release the lock before blocking, or "+
				"//lint:ignore with the reason the wait is bounded", recv, msg)
		}
		if name, pos, found := logCall(pass, node); found {
			pass.Reportf(pos, "%s call while %s is held — handlers format and write I/O; "+
				"release the lock first, or //lint:ignore lockheld with the reason the handler is in-memory",
				name, recv)
		}
		return false
	})
}

// blockingOp classifies one CFG node: channel send/receive (unless a
// nonblocking select case), range over a channel, a curated blocking
// call, or a re-lock of the held mutex.
func blockingOp(pass *analysis.Pass, node ast.Node, recv string,
	nonblocking map[ast.Stmt]bool, rangeChan map[ast.Expr]bool) (string, token.Pos, bool) {

	if stmt, ok := node.(ast.Stmt); ok && nonblocking[stmt] {
		return "", token.NoPos, false
	}
	if e, ok := node.(ast.Expr); ok && rangeChan[e] {
		return "a range over a channel", e.Pos(), true
	}
	if r, _, ok := lockAcquisition(pass, node); ok && r == recv {
		return "a second Lock of the same mutex (self-deadlock)", node.Pos(), true
	}
	var msg string
	var pos token.Pos
	ast.Inspect(node, func(n ast.Node) bool {
		if msg != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			msg, pos = "a channel send", n.Pos()
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				msg, pos = "a channel receive", n.Pos()
				return false
			}
		case *ast.CallExpr:
			if fn := pass.Callee(n); fn != nil {
				if label, ok := blockingCalls[fn.FullName()]; ok {
					msg, pos = "a call to "+label, n.Pos()
					return false
				}
			}
		}
		return true
	})
	return msg, pos, msg != ""
}

// logCall finds the first log/slog entry-point call inside one CFG
// node.
func logCall(pass *analysis.Pass, node ast.Node) (name string, pos token.Pos, found bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := pass.Callee(call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "log/slog" || !logCalls[fn.Name()] {
			return true
		}
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil &&
			types.TypeString(recv.Type(), nil) != "*log/slog.Logger" {
			return true
		}
		name, pos, found = "slog."+fn.Name(), call.Pos(), true
		return false
	})
	return name, pos, found
}

// checkByValue flags value receivers and parameters whose type contains
// a mutex.
func checkByValue(pass *analysis.Pass, fd *ast.FuncDecl) {
	check := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			t := pass.TypeOf(field.Type)
			if t == nil {
				continue
			}
			if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
				continue
			}
			if lock := containsLock(t, make(map[*types.Named]bool)); lock != "" {
				pos := field.Pos()
				if len(field.Names) > 0 {
					pos = field.Names[0].Pos()
				}
				pass.Reportf(pos, "%s passes %s by value, copying its %s; use a pointer so the "+
					"lock state stays shared", what, types.TypeString(t, types.RelativeTo(pass.Pkg)), lock)
			}
		}
	}
	check(fd.Recv, "receiver of "+fd.Name.Name)
	check(fd.Type.Params, "parameter of "+fd.Name.Name)
}

// containsLock reports the mutex type t carries by value ("" if none),
// looking through named types and struct fields.
func containsLock(t types.Type, seen map[*types.Named]bool) string {
	if named, ok := t.(*types.Named); ok {
		if seen[named] {
			return ""
		}
		seen[named] = true
		switch types.TypeString(named, nil) {
		case "sync.Mutex":
			return "sync.Mutex"
		case "sync.RWMutex":
			return "sync.RWMutex"
		}
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		if lock := containsLock(st.Field(i).Type(), seen); lock != "" {
			return lock
		}
	}
	return ""
}

func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}
