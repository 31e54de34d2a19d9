"""Layer-by-layer benchmark of the femtoshare experiment presets.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root for one measurement, or
``python3 perfbench/report.py`` for every workload in turn.
"""
