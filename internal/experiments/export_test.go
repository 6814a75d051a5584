package experiments

// E13Chase is E13's inline-chase workload, for the external tests.
var E13Chase = inlineChase{BigNodes: 8192, SmallNodes: 32, HopsA: 1200, HopsB: 1200, Instances: 8}
