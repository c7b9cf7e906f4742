package cli

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestReconstructGolden pins ppdm-reconstruct's exact stdout for every shape
// it accepts: the sampled shape, the perturbation drawn from the same seed,
// the reconstruction and the printed table must not move by a byte. On a
// mismatch the test prints the new output so the change can be reviewed.
func TestReconstructGolden(t *testing.T) {
	for _, tc := range []struct {
		args []string
		sha  string
	}{
		{
			args: []string{"-shape", "plateau", "-n", "20000", "-family", "uniform", "-privacy", "1.0", "-k", "20", "-seed", "5"},
			sha:  "4a4a6feaf9f8dcbd3cacfda7a1b6d09a394e179b93449841c71e5a8970551c7b",
		},
		{
			args: []string{"-shape", "triangles", "-n", "20000", "-family", "gaussian", "-privacy", "0.5", "-k", "20", "-seed", "6"},
			sha:  "0dc118970872b5fef134630b228c9985f1d34bdd7d67b596b0064d2b488a0e9f",
		},
		{
			args: []string{"-shape", "uniform", "-n", "20000", "-family", "laplace", "-privacy", "1.0", "-k", "16", "-algorithm", "em", "-seed", "7"},
			sha:  "fe50d56b07fa97063716297144a7c30f11f2e8955a6ca77d771cccfaab921d14",
		},
	} {
		out, errOut, code := runCmd(t, reconstructCmd, append(tc.args, "-workers", "1"))
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", tc.args, code, errOut)
		}
		sum := sha256.Sum256([]byte(out))
		if got := hex.EncodeToString(sum[:]); got != tc.sha {
			t.Errorf("%v: stdout sha256 %s, want %s; stdout:\n%s", tc.args, got, tc.sha, out)
		}
	}
}
