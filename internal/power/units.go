package power

// Named unit types for the physical quantities that cross package
// boundaries. They are plain float64 underneath — zero-cost, printf- and
// JSON-transparent — but the type checker (and the unitsafe analyzer,
// DESIGN.md §7) keeps volts, watts, and seconds from being interchanged
// silently. Untyped constants convert implicitly, so call sites like
// NewBudget(65) read naturally; converting between quantities requires an
// explicit float64(...) round-trip at the point of the physics.

// Volts is a supply or threshold voltage.
type Volts float64

// Watts is a power draw or power budget.
type Watts float64

// Seconds is a duration of simulated time.
type Seconds float64
