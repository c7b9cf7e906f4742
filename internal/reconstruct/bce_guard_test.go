package reconstruct

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// bceKernels are the unrolled dot kernels whose inner loops must stay free
// of bounds checks. Each is allowed exactly one IsSliceInBounds — the
// b = b[:len(a)] entry re-slice that pins the two lengths together — and
// zero IsInBounds.
var bceKernels = []string{"dot64", "scaledDot64"}

// TestKernelBoundsCheckElimination recompiles this package with
// -d=ssa/check_bce (against a fresh build cache, so the compiler really
// runs and really prints) and fails if any bounds check re-appears inside
// the unrolled kernels. This is the regression guard for the slab kernels'
// hot loops: an innocent-looking refactor that breaks the slice-advance
// idiom would silently reintroduce per-element checks and only show up as a
// benchmark regression much later.
func TestKernelBoundsCheckElimination(t *testing.T) {
	if testing.Short() {
		t.Skip("recompiles the package against a cold build cache")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not in PATH")
	}

	// Function line ranges of the kernels, from the source itself.
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "banded.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	type span struct{ lo, hi int }
	ranges := map[string]span{}
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv != nil {
			continue
		}
		ranges[fn.Name.Name] = span{fset.Position(fn.Pos()).Line, fset.Position(fn.End()).Line}
	}
	for _, name := range bceKernels {
		if _, ok := ranges[name]; !ok {
			t.Fatalf("kernel %s not found in banded.go — update bceKernels after renames", name)
		}
	}

	// Recompile with the BCE diagnostic. The per-package -gcflags spec keeps
	// dependencies on their default flags; the throwaway GOCACHE forces the
	// compile to actually run instead of replaying a silent cache hit.
	cmd := exec.Command(goBin, "build", "-gcflags=ppdm/internal/reconstruct=-d=ssa/check_bce", "ppdm/internal/reconstruct")
	cmd.Dir = "../.."
	cmd.Env = append(os.Environ(), "GOCACHE="+t.TempDir())
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("go build -d=ssa/check_bce failed: %v\n%s", err, out.Bytes())
	}
	found := regexp.MustCompile(`banded\.go:(\d+):\d+: Found (IsInBounds|IsSliceInBounds)`)
	matches := found.FindAllStringSubmatch(out.String(), -1)
	if len(matches) == 0 {
		t.Fatalf("check_bce build printed no diagnostics at all — the guard is not observing the compiler\n%s", out.Bytes())
	}

	sliceChecks := map[string]int{}
	for _, m := range matches {
		line, _ := strconv.Atoi(m[1])
		for _, name := range bceKernels {
			r := ranges[name]
			if line < r.lo || line > r.hi {
				continue
			}
			switch m[2] {
			case "IsInBounds":
				t.Errorf("bounds check regressed into %s (banded.go:%d)", name, line)
			case "IsSliceInBounds":
				sliceChecks[name]++
			}
		}
	}
	for _, name := range bceKernels {
		if n := sliceChecks[name]; n > 1 {
			t.Errorf("%s carries %d slice checks, want at most the single entry re-slice", name, n)
		}
	}
	if t.Failed() {
		var diag bytes.Buffer
		for _, m := range matches {
			fmt.Fprintf(&diag, "  %s\n", m[0])
		}
		t.Logf("all banded.go diagnostics:\n%s", diag.String())
	}
}

// fusedMultiplyAdds are arm64's fused multiply-add instructions, each of
// which adds a product to a sum without rounding the product first.
var fusedMultiplyAdds = map[string]bool{"FMADDD": true, "FMSUBD": true, "FNMADDD": true, "FNMSUBD": true}

// TestKernelNoFusedMultiplyAdd cross-compiles this package's test binary
// for arm64 and fails if an instruction compiled from the kernel — every
// function in banded.go, and iterate in reconstruct.go — is a fused
// multiply-add. The Go spec lets a compiler fuse x*y + z into one
// instruction, which rounds once instead of twice; the arm64 backend does,
// the amd64 one does not, so a fused kernel folds different bits on arm64.
// An explicit float64 conversion of the product forbids the fusion. The
// check is static: it reads the disassembly from go tool objdump, whose
// file:line positions follow inlined code back to its source, and needs no
// arm64 machine.
func TestKernelNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the package for arm64")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not in PATH")
	}

	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "reconstruct.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	iterLo, iterHi := 0, -1
	for _, decl := range file.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == "iterate" {
			iterLo, iterHi = fset.Position(fn.Pos()).Line, fset.Position(fn.End()).Line
		}
	}
	if iterHi < 0 {
		t.Fatal("iterate not found in reconstruct.go — update the guard after a rename")
	}

	bin := filepath.Join(t.TempDir(), "reconstruct.test")
	build := exec.Command(goBin, "test", "-c", "-o", bin, "ppdm/internal/reconstruct")
	build.Dir = "../.."
	build.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("arm64 cross-build failed: %v\n%s", err, out)
	}
	dump, err := exec.Command(goBin, "tool", "objdump", "-s", `^ppdm/internal/reconstruct\.`, bin).Output()
	if err != nil {
		t.Fatalf("go tool objdump: %v", err)
	}

	// An instruction line: "  banded.go:228  0x19fc78  1f410041  FMADDD F1, F0, F2, F1".
	inst := regexp.MustCompile(`^\s+(\S+\.go):(\d+)\s+0x[0-9a-f]+\s+[0-9a-f]+\s+(\S+)`)
	kernel := 0
	for _, text := range strings.Split(string(dump), "\n") {
		m := inst.FindStringSubmatch(text)
		if m == nil {
			continue
		}
		line, _ := strconv.Atoi(m[2])
		if m[1] != "banded.go" && (m[1] != "reconstruct.go" || line < iterLo || line > iterHi) {
			continue
		}
		kernel++
		if fusedMultiplyAdds[m[3]] {
			t.Errorf("%s:%d compiles to %s on arm64: convert the product to float64", m[1], line, m[3])
		}
	}
	if kernel == 0 {
		t.Fatalf("the arm64 disassembly holds no kernel instruction — the guard is not reading the kernel\n%.2000s", dump)
	}
}
