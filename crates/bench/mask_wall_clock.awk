# Masks the wall-clock cells of `experiments` output, so two runs of
# the same code print the same text: each `_eN finished in X.Xs_` line,
# and the time and rate columns of E14's throughput table.
#
#   experiments --quick --check all | awk -f crates/bench/mask_wall_clock.awk
/^### / { throughput = ($0 ~ /^### E14: streaming ingest throughput/) }
/^_e[0-9]+ finished in .*s_$/ { sub(/ in .*s_$/, " in (masked)_") }
throughput && /^\| [0-9]/ {
    split($0, cell, "|")
    $0 = "|" cell[2] "|" cell[3] "| (masked) | (masked) |"
}
{ print }
