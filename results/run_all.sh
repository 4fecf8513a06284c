#!/bin/bash
set -x
cd "$(dirname "$0")/.."
B="cargo run --release -q -p mlpart-bench --bin"
$B table1 -- --suite all                       > results/table1.txt 2>&1
$B table2 -- --suite medium --runs 20          > results/table2.txt 2>&1
$B table3 -- --suite medium --runs 20          > results/table3.txt 2>&1
$B table4 -- --suite medium --runs 10          > results/table4.txt 2>&1
$B table5 -- --suite medium --runs 10          > results/table5.txt 2>&1
$B table6 -- --suite medium --runs 10          > results/table6.txt 2>&1
$B table7 -- --suite medium --runs 20          > results/table7.txt 2>&1
$B table8 -- --suite medium --runs 20          > results/table8.txt 2>&1
$B table9 -- --runs 5 --suite primary1,primary2,biomed,s13207,s15850,industry2,industry3,avqsmall,avqlarge > results/table9.txt 2>&1
$B fig4   -- --runs 10 --suite avqsmall,avqlarge > results/fig4.txt 2>&1
$B ablation -- --runs 5 --suite small          > results/ablation.txt 2>&1
$B table4 -- --runs 3 --suite golem3           > results/golem3.txt 2>&1
$B table_kway_eps -- --suite balu,primary1,struct --runs 5 --seed 1997 > results/kway_eps.json
echo ALL_DONE
