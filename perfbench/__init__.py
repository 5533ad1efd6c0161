"""The wrice benchmark: `python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`. See perfbench/README.md."""
