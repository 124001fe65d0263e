// Package unreachable is the root package of the unreachable fixture:
// its exported functions are library API, and so roots.
package unreachable

import "unreachable.example/internal/parts"

// Area is library API; it keeps parts.Square.Area alive on its own.
func Area(side float64) float64 { return parts.Square{Side: side}.Area() }
