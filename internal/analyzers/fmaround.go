package analyzers

import (
	"go/ast"
	"go/token"
)

// fmaKernelPackages are the packages whose float64 arithmetic must stay
// bit-identical between the kernels and the references their tests hold
// them to (row-at-a-time loops, textbook definitions, scalar scans). On FMA
// architectures (arm64, ppc64) the Go compiler may contract a*b + c into
// a fused multiply-add, changing the rounding; an explicit float64(...)
// conversion around the product forces the intermediate rounding and
// keeps all platforms bit-identical (the PR 5 discipline).
var fmaKernelPackages = map[string]bool{
	"sdtw/internal/dtw":    true,
	"sdtw/internal/lower":  true,
	"sdtw/internal/match":  true,
	"sdtw/internal/series": true,
	"sdtw/internal/sift":   true,
}

// Fmaround flags float64 multiply-add shapes (a + b*c, a - b*c, a += b*c)
// in kernel packages whose product is not rounded through an explicit
// float64(...) conversion.
var Fmaround = &Analyzer{
	Name: "fmaround",
	Doc: "flag float64 multiply-add expressions in kernel packages that are not " +
		"rounded through an explicit float64(...) conversion (FMA-contraction " +
		"bit-identity guard)",
	Run: runFmaround,
}

func runFmaround(pass *Pass) error {
	if !fmaKernelPackages[basePath(pass.Pkg.Path())] {
		return nil
	}
	for _, file := range pass.Files {
		if pass.inTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op == token.ADD || n.Op == token.SUB {
					pass.checkFMAOperand(n.X)
					pass.checkFMAOperand(n.Y)
				}
			case *ast.AssignStmt:
				if (n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN) && len(n.Rhs) == 1 {
					pass.checkFMAOperand(n.Rhs[0])
				}
			}
			return true
		})
	}
	return nil
}

// checkFMAOperand reports e if it is a non-constant float64 product that
// an enclosing add/sub could contract into an FMA.
func (p *Pass) checkFMAOperand(e ast.Expr) {
	mul, ok := unparen(e).(*ast.BinaryExpr)
	if !ok || mul.Op != token.MUL {
		return
	}
	if !p.isFloat64(mul) || p.isConstExpr(mul) {
		return
	}
	p.Reportf(mul.Pos(),
		"float64 multiply-add %q may be contracted into an FMA on arm64/ppc64; wrap the product in an explicit float64(...) conversion to pin the intermediate rounding",
		exprString(mul))
}
