// Fixture: a package whose final path segment ("placement") puts it under
// the determinism contract.
package placement

import (
	"math/rand"
	"os"
	"time"
)

func wallClock() time.Duration {
	start := time.Now()      // want `time\.Now in simulation package`
	return time.Since(start) // want `time\.Since in simulation package`
}

func sleeper() {
	time.Sleep(time.Millisecond) // want `time\.Sleep in simulation package`
}

func globalRand() int {
	n := rand.Intn(10)                 // want `global math/rand\.Intn in simulation package`
	rand.Shuffle(n, func(i, j int) {}) // want `global math/rand\.Shuffle in simulation package`
	return n
}

func seededRandOK() int {
	r := rand.New(rand.NewSource(42))
	return r.Intn(10) // method on an injected *rand.Rand: allowed
}

func envDriven() string {
	return os.Getenv("SIM_MODE") // want `os\.Getenv in simulation package`
}

func fileIOOK() error {
	// Non-env os calls are out of detrand's scope.
	return os.Remove("scratch")
}

func durationMathOK(d time.Duration) float64 {
	// Pure duration arithmetic carries no wall-clock reads.
	return d.Seconds()
}
