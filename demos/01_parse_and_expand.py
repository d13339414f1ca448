"""
Parsing a circuit and reading off its AND-EXOR structure
========================================================

Loads the built-in 7-input, 3-output benchmark, prints its canonical
form, and reads two things off the circuit's one record, its AND-EXOR
network: each output's AND terms, which are the gate supports, and the
nets that reports name.
"""

from bridgetest import benchmark_circuit, format_circuit

# the benchmark ships with the package; any .rev file parses the same way,
# straight into the gate supports and targets every later stage reads
net = benchmark_circuit()
print(format_circuit(net))

print(f"n={net.n} inputs, p={net.p} targets, d={net.d} gates")
print()

# every output is its initial c line XORed with one AND term per gate
# targeting it, the gate's support, in gate order; duplicates would cancel
for j in range(1, net.p + 1):
    terms = " + ".join(
        "".join(f"x{v}" for v in sorted(support))
        for support, target in zip(net.gate_supports, net.gate_targets)
        if target == j
    )
    print(f"f{j} = c{j} + {terms}")
print()

# the netlist view: one AND per gate feeding a 2-input EXOR cascade, named
# as reports name them: a3 is gate 3's AND output, w2@5 the wire of target
# c2 after level 5 (w2@0 is c2 itself)
print(f"cascade levels per target line: {net.d + 1}")
for gate_id in (1, 13, 19):
    target = net.gate_targets[gate_id - 1]
    support = "".join(f"x{v}" for v in sorted(net.gate_supports[gate_id - 1]))
    print(f"gate {gate_id}: a{gate_id} = AND({support}),"
          f" EXOR reads (w{target}@{gate_id - 1}, a{gate_id})")
